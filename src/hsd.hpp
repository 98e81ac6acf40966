// OpenHSD umbrella header: the full public API.
//
//   #include "hsd.hpp"
//
// pulls in the geometry substrate, layout database, GDSII / text I/O, the
// lithography oracle + OPC, DRC, the SVM engine, the staged execution
// engine (RunContext + pipeline), and the hotspot-detection framework
// (training, evaluation, scoring, extensions) plus the synthetic
// benchmark generator.
#pragma once

#include "core/classify.hpp"
#include "core/dpt.hpp"
#include "core/evaluator.hpp"
#include "core/extract.hpp"
#include "core/features.hpp"
#include "core/fuzzy_match.hpp"
#include "core/metrics.hpp"
#include "core/mtcg.hpp"
#include "core/multilayer.hpp"
#include "core/pattern.hpp"
#include "core/removal.hpp"
#include "core/topo_string.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "data/motifs.hpp"
#include "drc/drc.hpp"
#include "engine/pipeline.hpp"
#include "engine/run_context.hpp"
#include "engine/stats.hpp"
#include "gds/ascii.hpp"
#include "gds/gdsii.hpp"
#include "geom/geom.hpp"
#include "layout/clip.hpp"
#include "layout/layout.hpp"
#include "layout/spatial_index.hpp"
#include "litho/litho.hpp"
#include "litho/opc.hpp"
#include "par/thread_pool.hpp"
#include "svm/dataset.hpp"
#include "svm/platt.hpp"
#include "svm/scaler.hpp"
#include "svm/svm.hpp"
