// hsd_perfbench: the OpenHSD benchmark program. One process runs one
// workload:
//
//   hsd_perfbench --workload <fullchip|serve-wire> --seed <n>
//                 --seconds <s> --trace <0|1>
//
// Every run prints every end-to-end metric, so every workload runs the
// same three phases; the workload sets their inputs and how much of
// --seconds each phase gets (see kWorkloads and README.md):
//
//   train   trainDetector repeatedly on the workload's training set;
//   detect  rounds of monolithic, tiled and ECO passes of evaluateLayout
//           over one generated layout, the ECO passes against a
//           StageCache warmed by the round's monolithic pass;
//   wire    POST /detect of distinct GDSII blocks to an in-process
//           DetectionServer: an open-loop phase at a fixed rate (latency
//           from each request's due time), then a closed loop with nproc
//           connections.
//
// Every output is checked (see the check* functions): reports are scored
// with this file's own hit/extra rule and cross-checked with
// core::scoreReports, SVM verdicts are recomputed with a plain RBF sum,
// tiled == monolithic, ECO warm == cold, wire == offline, repeated passes
// identical, save -> load keeps the fingerprint, windows lie inside the
// layout with the detector's clip size, accuracy stays above its floor.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. The line before it ("PERFBENCH_INFO ...") records nproc,
// every thread and connection count and per-phase attempted/failed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hsd.hpp"
#include "net/http.hpp"
#include "serve/detect_endpoint.hpp"
#include "serve/server.hpp"

namespace {

using namespace hsd;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return secondsSince(t0);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile (q in (0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = std::size_t(std::ceil(q * double(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over (seed, salt).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::size_t cpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return std::size_t(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports kB
}

// --- Workloads -------------------------------------------------------

/// Shape of one workload. Sides are in dbu (1 dbu = 1 nm).
struct Workload {
  const char* name;
  /// Suite entry (data::iccad2012LikeSuite index) whose training set,
  /// process and layout density the train and detect phases use. The
  /// training set is the entry's own (a fixed model, as in production
  /// sign-off and serving); layouts, edits and blocks come from --seed.
  std::size_t suiteEntry;
  Coord layoutSide;        ///< detect-phase layout is layoutSide^2
  double trainShare;       ///< of --seconds, spent in the train phase
  double detectShare;      ///< of --seconds, spent in the detect phase
  std::size_t minTrainings;
  /// Distinct wire blocks per 40 s of --seconds (at least kMinOpen); each
  /// is sent once in the open loop and once in the closed loop.
  std::size_t wireRequests;
  /// Which output accuracy and extras_per_mm2 score: the workload's own
  /// primary output, the wire blocks (serve-wire) or the detect layout
  /// (fullchip).
  bool scoreBlocks;
};

constexpr std::size_t kBenchmark1 = 0;  // suite entries
constexpr std::size_t kBenchmark3 = 2;
constexpr Coord kTileSize = 25000;    // tiled passes: 25 um tiles
/// Wire block sides, used in turn: the 20 um square the wire conformance
/// tests post (tests/test_detect_http.cpp) and the 24 um square the tool
/// smoke test posts (tests/tools_smoke.sh).
constexpr Coord kBlockSides[] = {20000, 24000};
constexpr double kEditShare = 0.01;   // ECO: 1 % of polygons removed
constexpr std::size_t kEdits = 2;     // ECO passes per round
constexpr double kWireRate = 10.0;    // open-loop requests per second
constexpr std::size_t kMinOpen = 100; // p90 needs >= 10 samples beyond it
constexpr std::size_t kSetupReps = 3;      // set-ups per run, at least,
constexpr double kSetupMinSeconds = 6.0;   // and until they took this long
constexpr std::size_t kRbfSample = 256;
/// Accuracy floor (README: the paper's lowest Table II accuracy is
/// 85.9 %; this reproduction's suite reaches 90-100 %).
constexpr double kAccuracyFloor = 0.85;

const Workload kWorkloads[] = {
    {"fullchip", kBenchmark3, 110000, 0.10, 0.45, 2, 100, false},
    {"serve-wire", kBenchmark1, 100000, 0.10, 0.20, 8, 120, true},
};

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

// --- Inputs ----------------------------------------------------------

data::BenchmarkSpec suiteSpec(std::size_t entry) {
  return data::iccad2012LikeSuite().at(entry);
}

data::GeneratorParams generatorParams(const data::BenchmarkSpec& spec,
                                      std::uint64_t seed) {
  data::GeneratorParams gp;
  gp.dims = spec.node32 ? data::ProcessDims::node32()
                        : data::ProcessDims::node28();
  gp.seed = seed;
  return gp;
}

core::Detector train(const gds::ClipSet& set, std::size_t threads) {
  engine::RunContext ctx(threads);
  return core::trainDetector(set.clips, core::TrainParams{}, ctx);
}

/// A square test layout at the suite entry's motif-site density.
data::TestLayout testLayout(const data::BenchmarkSpec& spec, Coord side,
                            std::uint64_t seed) {
  const double perArea =
      double(spec.sites) / (double(spec.width) * double(spec.height));
  const std::size_t sites = std::max<std::size_t>(
      1, std::size_t(std::lround(perArea * double(side) * double(side))));
  return data::generateTestLayout(generatorParams(spec, seed), side, side,
                                  sites, spec.riskyFrac);
}

std::string toGdsii(const Layout& layout) {
  std::ostringstream os;
  gds::writeGdsii(os, layout);
  return os.str();
}

Layout fromGdsii(const std::string& bytes) {
  std::istringstream is(bytes);
  return gds::readGdsii(is);
}

/// Copy of `layout` with a seeded share of its polygons removed.
Layout removePolygons(const Layout& layout, double share, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Layout out(layout.name() + "_eco");
  for (const auto& [id, layer] : layout.layers())
    for (const Polygon& p : layer.polygons())
      if (double(rng() >> 11) * 0x1.0p-53 >= share) out.addPolygon(id, p);
  return out;
}

core::EvalParams evalParams(const core::Detector& det) {
  // The same configuration DetectionEndpoint builds for a plain POST.
  core::EvalParams ep;
  ep.extract.clip = det.params.clip;
  ep.removal.clip = det.params.clip;
  return ep;
}

std::string reportBytes(const std::vector<ClipWindow>& reported,
                        const core::Detector& det) {
  std::ostringstream os;
  gds::writeWindowList(os, reported, det.params.clip);
  return os.str();
}

struct Block {
  std::string gdsii;
  std::vector<ClipWindow> truth;
  double areaUm2 = 0.0;
  Rect bbox;
};

struct Inputs {
  gds::ClipSet training;
  core::Detector detector;         ///< trained on `training`
  core::Detector served;           ///< benchmark1-shaped; wire phase
  Layout layout;                   ///< read back from GDSII
  std::vector<ClipWindow> truth;   ///< oracle hotspots of `layout`
  std::vector<Layout> edits;       ///< ECO copies of `layout`
  std::vector<Block> blocks;       ///< wire-phase request bodies
};

struct SetupTimes {
  double total = 0.0;
  double train = 0.0;
  double load = 0.0;
  double gdsRead = 0.0;
};

Inputs setUp(const Workload& w, std::uint64_t seed, std::size_t threads,
             std::size_t blockCount, SetupTimes& t) {
  const auto t0 = Clock::now();
  const data::BenchmarkSpec spec = suiteSpec(w.suiteEntry);
  Inputs in;
  in.training = data::generateTrainingSet(
      generatorParams(spec, spec.seed), spec.targets);
  t.train = timed([&] { in.detector = train(in.training, threads); });
  std::stringstream model;
  in.detector.save(model);
  t.load = timed([&] { in.detector = core::Detector::load(model); });

  const data::TestLayout test = testLayout(spec, w.layoutSide, mixSeed(seed, 2));
  const std::string bytes = toGdsii(test.layout);
  t.gdsRead = timed([&] { in.layout = fromGdsii(bytes); });
  in.truth = test.actualHotspots;
  for (std::size_t e = 0; e < kEdits; ++e)
    in.edits.push_back(
        removePolygons(in.layout, kEditShare, mixSeed(seed, 10 + e)));

  // The served model is always benchmark1's, so the wire phase serves the
  // same model in every workload and run.
  const data::BenchmarkSpec served = suiteSpec(kBenchmark1);
  if (w.suiteEntry == kBenchmark1)
    in.served = in.detector;
  else
    in.served = train(data::generateTrainingSet(
                          generatorParams(served, served.seed), served.targets),
                      threads);

  // Distinct small blocks in the served model's process; sides alternate
  // so every run sends the same size mix.
  for (std::size_t i = 0; i < blockCount; ++i) {
    const Coord side = kBlockSides[i % std::size(kBlockSides)];
    const data::TestLayout b = testLayout(served, side, mixSeed(seed, 1000 + i));
    in.blocks.push_back({toGdsii(b.layout), b.actualHotspots,
                         b.layout.areaUm2(), b.layout.bbox().value_or(Rect{})});
  }
  t.total = secondsSince(t0);
  return in;
}

// --- Checks ----------------------------------------------------------

struct Checks {
  bool ok = true;
  void require(bool cond, const std::string& what) {
    if (cond) return;
    if (ok) std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    ok = false;
  }
};

bool overlapsPositive(const Rect& a, const Rect& b) {
  return std::max(a.lo.x, b.lo.x) < std::min(a.hi.x, b.hi.x) &&
         std::max(a.lo.y, b.lo.y) < std::min(a.hi.y, b.hi.y);
}

double overlapArea(const Rect& a, const Rect& b) {
  const double w = double(std::min(a.hi.x, b.hi.x)) - double(std::max(a.lo.x, b.lo.x));
  const double h = double(std::min(a.hi.y, b.hi.y)) - double(std::max(a.lo.y, b.lo.y));
  return w > 0 && h > 0 ? w * h : 0.0;
}

bool contains(const Rect& outer, const Rect& inner) {
  return outer.lo.x <= inner.lo.x && outer.lo.y <= inner.lo.y &&
         inner.hi.x <= outer.hi.x && inner.hi.y <= outer.hi.y;
}

/// Contest scoring (Sec. II), written apart from core::scoreReports: a
/// report hits an actual hotspot when their cores overlap, the report's
/// clip covers the actual core, and the clips overlap by at least 20 % of
/// the clip area. Hits count distinct actual hotspots; a report hitting
/// none is an extra.
struct Tally {
  std::size_t hits = 0;
  std::size_t actual = 0;
  std::size_t extras = 0;
  double areaUm2 = 0.0;

  Tally& operator+=(const Tally& o) {
    hits += o.hits;
    actual += o.actual;
    extras += o.extras;
    areaUm2 += o.areaUm2;
    return *this;
  }
};

Tally score(const std::vector<ClipWindow>& reports,
            const std::vector<ClipWindow>& actual, double areaUm2) {
  Tally t;
  t.actual = actual.size();
  t.areaUm2 = areaUm2;
  std::vector<char> hit(actual.size(), 0);
  for (const ClipWindow& r : reports) {
    const double clipArea = double(r.clip.width()) * double(r.clip.height());
    bool any = false;
    for (std::size_t j = 0; j < actual.size(); ++j) {
      const ClipWindow& a = actual[j];
      if (overlapsPositive(r.core, a.core) && contains(r.clip, a.core) &&
          overlapArea(r.clip, a.clip) >= 0.2 * clipArea) {
        hit[j] = 1;
        any = true;
      }
    }
    if (!any) ++t.extras;
  }
  for (const char h : hit) t.hits += std::size_t(h);
  return t;
}

Tally checkedScore(Checks& c, const std::vector<ClipWindow>& reports,
                   const std::vector<ClipWindow>& actual, double areaUm2,
                   const char* what) {
  const Tally t = score(reports, actual, areaUm2);
  const core::Score s = core::scoreReports(reports, actual);
  c.require(s.hits == t.hits && s.extras == t.extras,
            std::string(what) + ": scoreReports disagrees with the contest rule");
  return t;
}

void checkWindows(Checks& c, const std::vector<ClipWindow>& reports,
                  const Rect& bbox, const ClipParams& clip, const char* what) {
  for (const ClipWindow& w : reports) {
    const bool shaped =
        w.clip.width() == clip.clipSide && w.clip.height() == clip.clipSide &&
        w.core.width() == clip.coreSide && w.core.height() == clip.coreSide &&
        w.core.lo.x - w.clip.lo.x == clip.ambit() &&
        w.core.lo.y - w.clip.lo.y == clip.ambit();
    c.require(shaped, std::string(what) + ": report window has the wrong size");
    // Cores are centred on polygon corners, so a window at the layout's
    // edge may overhang it; its centre may not.
    const Point centre{(w.core.lo.x + w.core.hi.x) / 2, (w.core.lo.y + w.core.hi.y) / 2};
    c.require(bbox.lo.x <= centre.x && centre.x <= bbox.hi.x &&
                  bbox.lo.y <= centre.y && centre.y <= bbox.hi.y,
              std::string(what) + ": report window outside the layout");
    if (!c.ok) return;
  }
}

/// SVM work of one OR-vote recomputed with a plain RBF sum.
struct VoteWork {
  std::size_t kernels = 0;
  std::size_t svDistances = 0;
};

/// Recompute the multiple-kernel OR vote on `core` as
/// sum(coef * exp(-gamma * |x - sv|^2)) - rho over each kernel's support
/// vectors, stopping at the first kernel that flags. Returns the verdict;
/// `ambiguous` is set when a decision value sits within rounding of 0.
bool rbfVote(const core::Detector& det, const svm::FeatureVector& feat,
             VoteWork& work, bool& ambiguous) {
  for (const core::KernelEntry& k : det.kernels) {
    const svm::FeatureVector x = k.scaler.transform(feat);
    const auto& svs = k.model.supportVectors();
    const auto& coef = k.model.coefficients();
    double d = -k.model.rho();
    for (std::size_t i = 0; i < svs.size(); ++i) {
      double dist = 0.0;
      for (std::size_t j = 0; j < x.size(); ++j) {
        const double diff = x[j] - svs[i][j];
        dist += diff * diff;
      }
      d += coef[i] * std::exp(-k.model.gamma() * dist);
    }
    ++work.kernels;
    work.svDistances += svs.size();
    if (std::abs(d) < 1e-9) ambiguous = true;
    if (d > 0.0) return true;
  }
  return false;
}

struct SampleStats {
  double coreUs = 0.0;   ///< core feature build, us per clip
  double ambitUs = 0.0;  ///< core+ambit feature build, us per clip
  double kernelsPerClip = 0.0;
  double svDistPerClip = 0.0;
};

/// Compare rbfVote with Detector::evaluateCore and with the evaluator's
/// own scoring path on a seeded sample of the layout's candidate clips;
/// also times the two feature builds.
SampleStats checkVotes(Checks& c, const core::Detector& det,
                       const Layout& layout, const core::EvalParams& ep,
                       std::size_t threads, std::uint64_t seed) {
  const Layer* layer = layout.findLayer(det.params.layer);
  SampleStats out;
  if (layer == nullptr) return out;
  const GridIndex index(layer->rects(), det.params.clip.clipSide);
  engine::RunContext ctx(threads);
  std::vector<ClipWindow> cands = core::extractCandidateClips(index, ep.extract, ctx);
  std::mt19937_64 rng(seed);
  std::shuffle(cands.begin(), cands.end(), rng);
  cands.resize(std::min(cands.size(), kRbfSample));
  // The timed passes score through Scaler::transformInto and the
  // dispatched SvmModel::decisionFrom; with feedback and removal off,
  // evaluateCandidates reports exactly the windows that path flags.
  core::EvalParams kernelsOnly = ep;
  kernelsOnly.useFeedback = false;
  kernelsOnly.useRemoval = false;
  std::set<std::pair<Coord, Coord>> flagged;
  for (const ClipWindow& w :
       core::evaluateCandidates(det, index, cands, kernelsOnly, ctx).reported)
    flagged.emplace(w.core.lo.x, w.core.lo.y);
  const std::vector<std::pair<LayerId, const GridIndex*>> idx{{det.params.layer, &index}};
  VoteWork work;
  double coreS = 0.0, ambitS = 0.0;
  for (const ClipWindow& win : cands) {
    const Clip clip = extractClip(idx, win);
    const core::CorePattern core = core::CorePattern::fromCore(clip, det.params.layer);
    svm::FeatureVector feat;
    coreS += timed([&] { feat = core::buildFeatureVector(core, det.params.features); });
    svm::FeatureVector ambit;
    ambitS += timed([&] {
      ambit = core::buildFeatureVector(
          core::CorePattern::fromClip(clip, det.params.layer),
          det.params.feedbackFeatures);
    });
    bool ambiguous = false;
    const bool mine = rbfVote(det, feat, work, ambiguous);
    c.require(ambiguous || mine == det.evaluateCore(core),
              "RBF recomputation disagrees with Detector::evaluateCore");
    c.require(ambiguous || mine == (flagged.count({win.core.lo.x, win.core.lo.y}) > 0),
              "RBF recomputation disagrees with evaluateCandidates");
  }
  if (!cands.empty()) {
    const double n = double(cands.size());
    out.coreUs = coreS / n * 1e6;
    out.ambitUs = ambitS / n * 1e6;
    out.kernelsPerClip = double(work.kernels) / n;
    out.svDistPerClip = double(work.svDistances) / n;
  }
  return out;
}

// --- Result ----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Run {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::size_t nproc = 1;
  Checks checks;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;  ///< printed for this run's mode
  std::vector<Metric> other;    ///< the other mode's, for the info line
  std::string info;             ///< PERFBENCH_INFO fields

  void add(bool perLayer, std::string name, double value, std::string unit) {
    (perLayer == trace ? metrics : other)
        .push_back({std::move(name), value, std::move(unit)});
  }
};

// --- Train phase -------------------------------------------------------

void trainPhase(Run& r, const Inputs& in, std::vector<double> trainSeconds) {
  const double budget = r.w->trainShare * r.seconds;
  std::vector<double> classify, kernels, selfeval;
  core::Detector last;
  const auto t0 = Clock::now();
  std::size_t n = 0;
  while (n < r.w->minTrainings || secondsSince(t0) < budget) {
    engine::RunContext ctx(r.nproc);
    ++r.attempted;
    trainSeconds.push_back(timed(
        [&] { last = core::trainDetector(in.training.clips, {}, ctx); }));
    const engine::EngineStats& st = ctx.stats();
    classify.push_back(st.stage("train/classify").seconds);
    kernels.push_back(st.stage("train/kernels").seconds);
    selfeval.push_back(st.stage("train/feedback").seconds +
                       st.stage("train/platt").seconds +
                       st.stage("train/baseline").seconds);
    ++n;
  }
  r.checks.require(last.fingerprint() == in.detector.fingerprint(),
                   "repeated training gives a different detector");
  r.add(false, "train_s", median(trainSeconds), "s");
  r.add(true, "train.classify_s", median(classify), "s");
  // TrainStats are not saved with the model: read them off a fresh fit.
  r.add(true, "train.clusters", double(last.stats.hotspotClusters), "count");
  r.add(true, "train.kernels_s", median(kernels), "s");
  r.add(true, "train.selfeval_s", median(selfeval), "s");
  r.info += ", \"trainings\": " + std::to_string(trainSeconds.size());
}

// --- Detect phase ------------------------------------------------------

/// Returns the monolithic report's score against the layout's truth.
Tally detectPhase(Run& r, const Inputs& in, double& monoPassMedian) {
  const core::Detector& det = in.detector;
  const core::EvalParams ep = evalParams(det);
  core::EvalParams tiledEp = ep;
  tiledEp.tiling.tileSize = kTileSize;
  const double area = in.layout.areaUm2();
  const Rect bbox = in.layout.bbox().value_or(Rect{});

  std::vector<double> mono, tiled, eco;
  std::vector<double> indexS, extractS, anchors, candidates, svmUs, flagRatio,
      fbClips, fbReclaimed, fbUs, removalIn, removalOut, removalS;
  std::vector<double> tiles, prepareS, tileS, mergeS, hitRatio, misses;
  std::string monoBytes;
  std::vector<std::string> ecoBytes(in.edits.size());
  std::vector<ClipWindow> monoReport;

  const double budget = r.w->detectShare * r.seconds;
  const auto t0 = Clock::now();
  std::size_t rounds = 0;
  do {
    // Monolithic sign-off pass; its fresh cache is what the ECO passes
    // of this round re-read.
    auto cache = std::make_shared<engine::StageCache>();
    core::EvalResult res;
    {
      engine::RunContext ctx(r.nproc);
      ctx.attachCache(cache);
      ++r.attempted;
      mono.push_back(timed([&] { res = core::evaluateLayout(det, in.layout, ep, ctx); }));
      const engine::EngineStats& st = ctx.stats();
      const engine::StageStats screen = st.stage("extract/screen");
      const engine::StageStats cand = st.stage("extract/candidates");
      const engine::StageStats svm = st.stage("eval/svm");
      const engine::StageStats fb = st.stage("eval/feedback");
      anchors.push_back(double(screen.items));
      candidates.push_back(double(cand.items));
      extractS.push_back(screen.seconds + cand.seconds);
      svmUs.push_back(svm.items ? svm.seconds / double(svm.items) * 1e6 : 0.0);
      flagRatio.push_back(svm.items ? double(fb.items) / double(svm.items) : 0.0);
      fbClips.push_back(double(fb.items));
      fbReclaimed.push_back(double(fb.items) - double(res.flaggedBeforeRemoval));
      fbUs.push_back(fb.items ? fb.seconds / double(fb.items) * 1e6 : 0.0);
      removalIn.push_back(double(res.flaggedBeforeRemoval));
      removalOut.push_back(double(res.reported.size()));
      removalS.push_back(st.stage("eval/removal").seconds);
    }
    const std::string bytes = reportBytes(res.reported, det);
    if (rounds == 0) {
      monoBytes = bytes;
      monoReport = res.reported;
    }
    r.checks.require(bytes == monoBytes, "repeated monolithic passes differ");
    if (r.trace) {
      const Layer* l = in.layout.findLayer(det.params.layer);
      indexS.push_back(
          timed([&] { const GridIndex index(l->rects(), det.params.clip.clipSide); }));
    }

    // Tiled pass: evaluateLayout's own tiled path.
    {
      engine::RunContext ctx(r.nproc);
      core::EvalResult tr;
      ++r.attempted;
      tiled.push_back(
          timed([&] { tr = core::evaluateLayout(det, in.layout, tiledEp, ctx); }));
      r.checks.require(reportBytes(tr.reported, det) == monoBytes,
                       "tiled report differs from the monolithic report");
    }

    // The traced run splits one more tiled evaluation into its public
    // steps, with the schedule evaluateLayout uses (one tile per
    // parallelFor item), to time each of them.
    if (r.trace) {
      engine::RunContext ctx(r.nproc);
      core::EvalResult tr;
      double prep = 0.0, merge = 0.0;
      ++r.attempted;
      const auto start = Clock::now();
      core::TiledLayout plan;
      prep = timed([&] {
        plan = core::prepareTiledLayout(in.layout, det.params.layer, tiledEp);
      });
      core::declareTileStages(ctx.stats(), plan, false);
      std::vector<core::TileEvalResult> parts(plan.work.size());
      std::vector<double> perTile(plan.work.size());
      ctx.parallelFor(
          plan.work.size(),
          [&](std::size_t i) {
            perTile[i] =
                timed([&] { parts[i] = core::evaluateTile(det, plan, i, tiledEp, ctx); });
          },
          1);
      merge = timed([&] {
        tr = core::finishTiledEval(plan, std::move(parts), tiledEp, ctx, start);
      });
      r.checks.require(reportBytes(tr.reported, det) == monoBytes,
                       "tiled report (by steps) differs from the monolithic report");
      tiles.push_back(double(perTile.size()));
      prepareS.push_back(prep);
      tileS.push_back(median(perTile));
      mergeS.push_back(merge);
    }

    // ECO passes against the cache the monolithic pass warmed.
    for (std::size_t e = 0; e < in.edits.size(); ++e) {
      engine::RunContext ctx(r.nproc);
      ctx.attachCache(cache);
      const engine::StageCache::Counters before = cache->counters();
      core::EvalResult er;
      ++r.attempted;
      eco.push_back(timed([&] { er = core::evaluateLayout(det, in.edits[e], ep, ctx); }));
      const engine::StageCache::Counters after = cache->counters();
      const double h = double(after.hits - before.hits);
      const double m = double(after.misses - before.misses);
      hitRatio.push_back(h + m > 0 ? h / (h + m) : 0.0);
      misses.push_back(m);
      const std::string bytes = reportBytes(er.reported, det);
      if (rounds == 0) ecoBytes[e] = bytes;
      r.checks.require(bytes == ecoBytes[e], "repeated ECO passes differ");
    }
    ++rounds;
  } while (secondsSince(t0) < budget);

  // Outside the timed part: ECO warm == cold, scoring, windows, votes.
  for (std::size_t e = 0; e < in.edits.size(); ++e) {
    engine::RunContext ctx(r.nproc);
    const core::EvalResult cold = core::evaluateLayout(det, in.edits[e], ep, ctx);
    r.checks.require(reportBytes(cold.reported, det) == ecoBytes[e],
                     "ECO warm report differs from a cold evaluation");
  }
  const Tally quality = checkedScore(r.checks, monoReport, in.truth, area, "layout");
  checkWindows(r.checks, monoReport, bbox, det.params.clip, "layout");
  const SampleStats votes =
      checkVotes(r.checks, det, in.layout, ep, r.nproc, mixSeed(r.seed, 5));

  monoPassMedian = median(mono);
  r.add(false, "detect_um2_per_s", area / median(mono), "um2/s");
  r.add(false, "detect_tiled_um2_per_s", area / median(tiled), "um2/s");
  // An ECO pass is short and about half of it is the detector's serial
  // fingerprint; its run-to-run spread (0.17-0.39 in ten-run sets on a
  // 4-vCPU box) exceeds any end-to-end bound, so it is a per-layer figure.
  r.add(true, "eco.um2_per_s", area / median(eco), "um2/s");
  r.add(true, "layout.index_s", median(indexS), "s");
  r.add(true, "extract.anchors", median(anchors), "count");
  r.add(true, "extract.candidates", median(candidates), "count");
  r.add(true, "extract.s", median(extractS), "s");
  r.add(true, "features.core_us_per_clip", votes.coreUs, "us");
  r.add(true, "features.ambit_us_per_clip", votes.ambitUs, "us");
  r.add(true, "svm.us_per_clip", median(svmUs), "us");
  r.add(true, "svm.kernels_per_clip", votes.kernelsPerClip, "count");
  r.add(true, "svm.sv_dist_per_clip", votes.svDistPerClip, "count");
  r.add(true, "svm.flag_ratio", median(flagRatio), "ratio");
  r.add(true, "feedback.clips", median(fbClips), "count");
  r.add(true, "feedback.reclaimed", median(fbReclaimed), "count");
  r.add(true, "feedback.us_per_clip", median(fbUs), "us");
  r.add(true, "removal.in", median(removalIn), "count");
  r.add(true, "removal.out", median(removalOut), "count");
  r.add(true, "removal.s", median(removalS), "s");
  r.add(true, "tiler.tiles", median(tiles), "count");
  r.add(true, "tiler.prepare_s", median(prepareS), "s");
  r.add(true, "tiler.tile_p50_s", median(tileS), "s");
  r.add(true, "tiler.merge_s", median(mergeS), "s");
  r.add(true, "cache.hit_ratio", median(hitRatio), "ratio");
  r.add(true, "cache.misses", median(misses), "count");
  r.info += ", \"detectRounds\": " + std::to_string(rounds) +
            ", \"layoutUm2\": " + std::to_string(area);
  return quality;
}

// --- Wire phase --------------------------------------------------------

struct WireReply {
  bool ok = false;
  std::string body;
  double latency = 0.0;   ///< from due time (open loop) or send (closed)
  double late = 0.0;      ///< send time minus due time (open loop)
  double queue = 0.0;     ///< server queue seconds (X-Profile)
  double run = 0.0;       ///< server run seconds (X-Profile)
  double overhead = 0.0;  ///< client time minus server queue + run
};

double profileField(const std::string& json, const char* key) {
  const std::string k = std::string("\"") + key + "\": ";
  const std::size_t at = json.find(k);
  return at == std::string::npos ? 0.0 : std::atof(json.c_str() + at + k.size());
}

WireReply post(std::uint16_t port, const Block& b, bool profile,
               Clock::time_point due) {
  WireReply rep;
  const auto sent = Clock::now();
  rep.late = std::chrono::duration<double>(sent - due).count();
  try {
    std::vector<std::pair<std::string, std::string>> headers;
    if (profile) headers.emplace_back("X-Profile", "1");
    net::HttpResult res = net::httpPost("127.0.0.1", port, "/detect", b.gdsii,
                                        "application/octet-stream", headers);
    const auto done = Clock::now();
    rep.latency = std::chrono::duration<double>(done - due).count();
    rep.ok = res.status == 200;
    rep.body = std::move(res.body);
    if (const std::string* p = res.header("x-profile")) {
      const double client = std::chrono::duration<double>(done - sent).count();
      rep.queue = profileField(*p, "queueSeconds");
      rep.run = profileField(*p, "runSeconds");
      rep.overhead = client - rep.queue - rep.run;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: POST /detect failed: %s\n", e.what());
  }
  return rep;
}

std::size_t blockCount(const Run& r) {
  return std::max(kMinOpen, std::size_t(std::lround(
                                double(r.w->wireRequests) * r.seconds / 40.0)));
}

/// Serve `in.served` on a fresh DetectionServer (fresh shared cache) behind
/// a loopback HttpServer while `load(port)` runs. Returns the server's
/// shared-cache hit ratio.
double withServer(const Run& r, const Inputs& in,
                  const std::function<void(std::uint16_t)>& load) {
  serve::ServerConfig cfg;
  cfg.workers = r.nproc;
  cfg.contexts = r.nproc;
  cfg.threadsPerContext = 1;
  serve::DetectionServer server(cfg);
  serve::DetectEndpointConfig ecfg;
  ecfg.maxQueueDepth = in.blocks.size();  // measure queueing, never 429
  serve::DetectionEndpoint endpoint(server, in.served, ecfg);
  net::HttpServerOptions hopts;
  hopts.handlerThreads = r.nproc;
  hopts.maxBodyBytes = 16u << 20;
  hopts.maxQueuedConnections = in.blocks.size();
  hopts.ioTimeoutMs = 30000;
  net::HttpServer http(hopts);
  endpoint.mount(http);
  http.start();
  load(http.port());
  http.stop();
  const serve::DetectionServer::Stats st = server.stats();
  const double lookups = double(st.cache.hits + st.cache.misses);
  return lookups > 0 ? double(st.cache.hits) / lookups : 0.0;
}

/// Run `send(i)` for every block index on `conns` client threads, each
/// taking the next index when its previous request is done.
void drive(std::size_t conns, std::size_t n,
           const std::function<void(std::size_t)>& send) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < conns; ++c)
    clients.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) send(i);
    });
  for (std::thread& t : clients) t.join();
}

/// Returns the offline reports' score against the blocks' truth.
Tally wirePhase(Run& r, const Inputs& in, double servedFingerprintS) {
  const std::size_t n = in.blocks.size();
  const std::size_t conns = r.nproc;
  // Open loop: request i is due at t0 + i / rate, whichever connection
  // sends it; latency runs from the due time.
  std::vector<WireReply> open(n);
  const double openHits = withServer(r, in, [&](std::uint16_t port) {
    const auto t0 = Clock::now() + std::chrono::milliseconds(50);
    const auto dueAt = [&](std::size_t i) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(double(i) / kWireRate));
    };
    drive(conns, n, [&](std::size_t i) {
      std::this_thread::sleep_until(dueAt(i));
      open[i] = post(port, in.blocks[i], r.trace, dueAt(i));
    });
  });
  // Closed loop: the same blocks to a fresh server (so its cache is cold
  // again), `conns` connections sending back to back.
  std::vector<WireReply> closed(n);
  double closedWall = 0.0;
  withServer(r, in, [&](std::uint16_t port) {
    closedWall = timed([&] {
      drive(conns, n, [&](std::size_t i) {
        closed[i] = post(port, in.blocks[i], r.trace, Clock::now());
      });
    });
  });

  std::size_t openFailed = 0, closedFailed = 0;
  std::vector<double> latency, late, queue, run, overhead;
  for (std::size_t i = 0; i < n; ++i) {
    for (const WireReply* rep : {&open[i], &closed[i]}) {
      ++r.attempted;
      if (!rep->ok) {
        ++r.failed;
        ++(rep == &open[i] ? openFailed : closedFailed);
        continue;
      }
      queue.push_back(rep->queue);
      run.push_back(rep->run);
      overhead.push_back(rep->overhead);
    }
    if (open[i].ok) {
      latency.push_back(open[i].latency);
      late.push_back(open[i].late);
    }
  }

  // Outside the timed part: every reply equals an offline evaluation of
  // the same block, which is scored against the block's oracle truth.
  const core::EvalParams ep = evalParams(in.served);
  std::vector<std::vector<ClipWindow>> offline(n);
  drive(r.nproc, n, [&](std::size_t i) {
    engine::RunContext ctx(1);
    offline[i] =
        core::evaluateLayout(in.served, fromGdsii(in.blocks[i].gdsii), ep, ctx)
            .reported;
  });
  Tally quality;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string expected = reportBytes(offline[i], in.served);
    for (const WireReply* rep : {&open[i], &closed[i]})
      r.checks.require(!rep->ok || rep->body == expected,
                       "wire report differs from an offline evaluation");
    quality += checkedScore(r.checks, offline[i], in.blocks[i].truth,
                            in.blocks[i].areaUm2, "block");
    checkWindows(r.checks, offline[i], in.blocks[i].bbox, in.served.params.clip,
                 "block");
  }

  r.add(false, "wire_p90_s", quantile(latency, 0.90), "s");
  // The median request and the closed-loop throughput follow the host's
  // load (medians of ten-run sets moved up to 33 % and quartile spreads
  // reached 0.29 on a 4-vCPU box), beyond any end-to-end bound; they are
  // per-layer figures.
  r.add(true, "wire.p50_s", quantile(latency, 0.50), "s");
  r.add(true, "wire.max_rps", double(n - closedFailed) / closedWall, "1/s");
  r.info += ", \"wire\": {\"rate\": " + std::to_string(kWireRate) +
            ", \"openAttempted\": " + std::to_string(n) +
            ", \"openFailed\": " + std::to_string(openFailed) +
            ", \"closedAttempted\": " + std::to_string(n) +
            ", \"closedFailed\": " + std::to_string(closedFailed) +
            ", \"clientConnections\": " + std::to_string(conns) +
            ", \"serverWorkers\": " + std::to_string(r.nproc) +
            ", \"threadsPerContext\": 1" +
            ", \"httpHandlerThreads\": " + std::to_string(conns) + "}";
  r.add(true, "serve.cache_hit_ratio", openHits, "ratio");
  // The per-request split comes from the X-Profile header, which only
  // the traced run asks for.
  r.add(true, "serve.queue_p50_s", median(queue), "s");
  r.add(true, "serve.run_p50_s", median(run), "s");
  r.add(true, "net.overhead_p50_s", median(overhead), "s");
  r.add(true, "detector.fingerprint_share_request",
        servedFingerprintS / median(run), "ratio");
  r.add(true, "wire.late_s", quantile(late, 0.90), "s");
  return quality;
}

// --- Main ---------------------------------------------------------------

std::string formatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
           formatNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: hsd_perfbench --workload "
               "<fullchip|serve-wire> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Run r;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") r.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") r.seconds = std::atof(v);
    else if (k == "--trace") r.trace = std::atoi(v) != 0;
    else return usage(("unknown flag " + k).c_str());
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  r.w = findWorkload(workload);
  if (r.w == nullptr) return usage(("unknown workload '" + workload + "'").c_str());
  if (!(r.seconds > 0.0)) return usage("--seconds must be positive");
  r.nproc = cpuCount();

  try {
    // Set-up: inputs and detectors, built several times (deterministic,
    // so every repetition builds the same thing); setup_s is the median.
    std::vector<double> setupS, trainS, loadS, readS;
    Inputs in;
    while (setupS.size() < kSetupReps || sum(setupS) < kSetupMinSeconds) {
      SetupTimes t;
      in = setUp(*r.w, r.seed, r.nproc, blockCount(r), t);
      setupS.push_back(t.total);
      trainS.push_back(t.train);
      loadS.push_back(t.load);
      readS.push_back(t.gdsRead);
    }
    r.info = "\"workload\": \"" + std::string(r.w->name) +
             "\", \"seed\": " + std::to_string(r.seed) +
             ", \"nproc\": " + std::to_string(r.nproc) +
             ", \"contextThreads\": " + std::to_string(r.nproc) +
             ", \"kernels\": " + std::to_string(in.detector.kernels.size());

    // save -> load keeps the fingerprint (outside set-up timing).
    std::vector<double> fpS;
    std::uint64_t fp = 0;
    for (int i = 0; i < 3; ++i) fpS.push_back(timed([&] { fp = in.detector.fingerprint(); }));
    {
      std::stringstream ss;
      in.detector.save(ss);
      r.checks.require(core::Detector::load(ss).fingerprint() == fp,
                       "save -> load changes the detector fingerprint");
    }
    const double servedFpS = timed([&] { (void)in.served.fingerprint(); });

    Tally layoutQ, blocksQ;
    double monoPass = 0.0;
    const double trainWall = timed([&] { trainPhase(r, in, trainS); });
    const double detectWall = timed([&] { layoutQ = detectPhase(r, in, monoPass); });
    const double wireWall = timed([&] { blocksQ = wirePhase(r, in, servedFpS); });
    r.info += ", \"phaseSeconds\": {\"setup\": " + formatNumber(sum(setupS)) +
              ", \"train\": " + formatNumber(trainWall) +
              ", \"detect\": " + formatNumber(detectWall) +
              ", \"wire\": " + formatNumber(wireWall) + "}";

    const auto accuracyOf = [](const Tally& t) {
      return t.actual ? double(t.hits) / double(t.actual) : 1.0;
    };
    r.checks.require(accuracyOf(layoutQ) >= kAccuracyFloor,
                     "layout accuracy below the floor");
    r.checks.require(accuracyOf(blocksQ) >= kAccuracyFloor,
                     "wire block accuracy below the floor");
    const Tally& q = r.w->scoreBlocks ? blocksQ : layoutQ;
    const double accuracy = accuracyOf(q);
    r.add(false, "setup_s", median(setupS), "s");
    r.add(false, "accuracy", accuracy, "ratio");
    r.add(false, "extras_per_mm2", double(q.extras) / (q.areaUm2 * 1e-6), "1/mm2");
    r.add(false, "peak_rss_mb", peakRssMb(), "MB");
    r.add(true, "gds.read_s", median(readS), "s");
    r.add(true, "detector.load_s", median(loadS), "s");
    r.add(true, "detector.fingerprint_s", median(fpS), "s");
    r.add(true, "detector.fingerprint_share_pass", median(fpS) / monoPass, "ratio");
    r.info += ", \"scored\": \"" + std::string(r.w->scoreBlocks ? "blocks" : "layout") +
              "\", \"hits\": " + std::to_string(q.hits) +
              ", \"actual\": " + std::to_string(q.actual) +
              ", \"extras\": " + std::to_string(q.extras);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  // The traced run also records its end-to-end figures: their distance
  // from an untraced run is the tracing overhead.
  if (r.trace) r.info += ", \"endToEnd\": " + metricsJson(r.other);
  std::printf("PERFBENCH_INFO {%s}\n", r.info.c_str());
  const std::string out =
      "{\"correct\": " + std::string(r.checks.ok ? "true" : "false") +
      ", \"attempted\": " + std::to_string(r.attempted) +
      ", \"failed\": " + std::to_string(r.failed) +
      ", \"metrics\": " + metricsJson(r.metrics) + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
