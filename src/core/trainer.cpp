#include "core/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "engine/arena.hpp"
#include "engine/stats.hpp"
#include "geom/hashing.hpp"

namespace hsd::core {

namespace {

// Shift the clip *window* (geometry stays put), which shifts the pattern
// relative to the window — the paper's data-shifting derivative.
Clip windowShifted(const Clip& clip, const Point& d) {
  Clip out(clip.window().translated(d), clip.label());
  for (const LayerId id : clip.layerIds()) {
    std::vector<Rect> rs = clip.rectsOn(id);
    out.setRects(id, std::move(rs));
  }
  return out;
}

// Iterative learning (Sec. III-D2): double C and gamma until the training
// accuracy target is met or the bound is hit. Returns the last model.
struct IterativeResult {
  svm::SvmModel model;
  double finalC = 0;
  double finalGamma = 0;
  std::size_t iterations = 0;
};

// Per-class accuracy of `model` on pre-scaled vectors with the given label.
double classAccuracy(const svm::SvmModel& model,
                     const std::vector<svm::FeatureVector>& scaled,
                     int label) {
  if (scaled.empty()) return 1.0;
  std::size_t ok = 0;
  for (const svm::FeatureVector& x : scaled)
    if (model.predict(x) == label) ++ok;
  return double(ok) / double(scaled.size());
}

// Self-training loop of Sec. III-D2: double C and gamma until both class
// accuracies (hotspots of this cluster; the full raw non-hotspot set) meet
// the target, or the iteration bound is hit. Polls the run's cancellation
// flag between iterations so a long kernel fit can be abandoned.
IterativeResult iterativeTrain(const svm::Dataset& scaled,
                               const std::vector<svm::FeatureVector>& valPos,
                               const std::vector<svm::FeatureVector>& valNeg,
                               const TrainParams& tp,
                               engine::RunContext& ctx) {
  IterativeResult res;
  double C = tp.initC;
  double gamma = tp.initGamma;
  for (std::size_t it = 0;; ++it) {
    ctx.throwIfCancelled();
    svm::SvmParams sp;
    sp.C = C;
    sp.gamma = gamma;
    res.model = svm::train(scaled, sp).model;
    res.finalC = C;
    res.finalGamma = gamma;
    res.iterations = it + 1;
    const double posAcc = classAccuracy(res.model, valPos, +1);
    const double negAcc = classAccuracy(res.model, valNeg, -1);
    if ((posAcc >= tp.targetTrainAcc && negAcc >= tp.targetTrainAcc) ||
        it + 1 >= tp.maxSelfIter)
      break;
    C *= 2;
    gamma *= 2;
  }
  return res;
}

// The OR vote (bias 0) of every vector in `feats`, kVoteChunk vectors
// per parallel task.
std::vector<KernelVote> voteAll(const Detector& det,
                                const std::vector<svm::FeatureVector>& feats,
                                engine::RunContext& ctx) {
  std::vector<const svm::FeatureVector*> ptrs(feats.size());
  for (std::size_t i = 0; i < feats.size(); ++i) ptrs[i] = &feats[i];
  std::vector<KernelVote> out(feats.size());
  ctx.parallelFor(
      (feats.size() + kVoteChunk - 1) / kVoteChunk,
      [&](std::size_t c) {
        const std::size_t lo = c * kVoteChunk;
        const std::size_t n = std::min(kVoteChunk, feats.size() - lo);
        det.voteCores({ptrs.data() + lo, n}, 0.0, {out.data() + lo, n});
      },
      1);
  return out;
}

}  // namespace

std::vector<Clip> shiftDerivatives(const Clip& clip, Coord shiftNm) {
  std::vector<Clip> out{clip};
  if (shiftNm > 0) {
    out.push_back(windowShifted(clip, {shiftNm, 0}));
    out.push_back(windowShifted(clip, {-shiftNm, 0}));
    out.push_back(windowShifted(clip, {0, shiftNm}));
    out.push_back(windowShifted(clip, {0, -shiftNm}));
  }
  return out;
}

Detector trainDetector(const std::vector<Clip>& training,
                       const TrainParams& tp, engine::RunContext& ctx) {
  const auto t0 = std::chrono::steady_clock::now();
  Detector det;
  det.params = tp;

  std::vector<Clip> hs;
  std::vector<Clip> nhs;
  for (const Clip& c : training) {
    if (c.label() == Label::kHotspot)
      hs.push_back(c);
    else if (c.label() == Label::kNonHotspot)
      nhs.push_back(c);
  }
  if (hs.empty() || nhs.empty())
    throw std::invalid_argument(
        "trainDetector: need both hotspot and non-hotspot clips");
  det.stats.rawHotspots = hs.size();
  det.stats.rawNonHotspots = nhs.size();

  // Data shifting: upsample hotspots with 4-way shifted derivatives
  // (introduces the fuzziness that lets kernels catch near-miss clips).
  if (tp.enableShift) {
    std::vector<Clip> upsampled;
    upsampled.reserve(hs.size() * 5);
    for (const Clip& c : hs) {
      std::vector<Clip> d = shiftDerivatives(c, tp.shiftNm);
      upsampled.insert(upsampled.end(), std::make_move_iterator(d.begin()),
                       std::make_move_iterator(d.end()));
    }
    hs = std::move(upsampled);
  }
  det.stats.upsampledHotspots = hs.size();

  // Core patterns for classification and core-feature extraction.
  std::vector<CorePattern> hsCores;
  hsCores.reserve(hs.size());
  for (const Clip& c : hs) hsCores.push_back(CorePattern::fromCore(c, tp.layer));
  std::vector<CorePattern> nhsCores;
  nhsCores.reserve(nhs.size());
  for (const Clip& c : nhs)
    nhsCores.push_back(CorePattern::fromCore(c, tp.layer));

  engine::StageTimer classifyTimer(ctx.stats(), "train/classify",
                                   hs.size() + nhs.size(), ctx.tracer());
  std::vector<Cluster> hsClusters;
  if (tp.singleKernel) {
    Cluster all;
    all.topoKey = "*";
    all.members.resize(hs.size());
    for (std::size_t i = 0; i < hs.size(); ++i) all.members[i] = i;
    all.representative = 0;
    hsClusters.push_back(std::move(all));
  } else {
    hsClusters = classifyPatterns(hsCores, tp.classify);
  }
  const std::vector<Cluster> nhsClusters =
      classifyPatterns(nhsCores, tp.classify);
  classifyTimer.stop();
  det.stats.hotspotClusters = hsClusters.size();
  det.stats.nonHotspotClusters = nhsClusters.size();

  // Population balancing: the non-hotspot training set is the cluster
  // centroids only (downsampling + noise removal).
  std::vector<std::size_t> nhsSelected;
  if (tp.balancePopulation) {
    nhsSelected.reserve(nhsClusters.size());
    for (const Cluster& c : nhsClusters) nhsSelected.push_back(c.representative);
  } else {
    nhsSelected.resize(nhs.size());
    for (std::size_t i = 0; i < nhs.size(); ++i) nhsSelected[i] = i;
  }
  det.stats.balancedNonHotspots = nhsSelected.size();

  // Core feature vectors (shared across kernels). The full raw non-hotspot
  // feature list doubles as the self-training validation set.
  engine::StageTimer featureTimer(ctx.stats(), "train/features",
                                  hs.size() + nhs.size(), ctx.tracer());
  std::vector<svm::FeatureVector> hsFeat(hs.size());
  ctx.parallelFor(hs.size(), [&](std::size_t i) {
    hsFeat[i] = buildFeatureVector(hsCores[i], tp.features);
  });
  std::vector<svm::FeatureVector> allNhsFeat(nhs.size());
  ctx.parallelFor(nhs.size(), [&](std::size_t i) {
    allNhsFeat[i] = buildFeatureVector(nhsCores[i], tp.features);
  });
  featureTimer.stop();
  std::vector<svm::FeatureVector> nhsFeat(nhsSelected.size());
  for (std::size_t i = 0; i < nhsSelected.size(); ++i)
    nhsFeat[i] = allNhsFeat[nhsSelected[i]];

  // One SVM kernel per hotspot cluster (Fig. 9a), trained in parallel.
  engine::StageTimer kernelTimer(ctx.stats(), "train/kernels",
                                 hsClusters.size(), ctx.tracer());
  det.kernels.resize(hsClusters.size());
  ctx.parallelFor(hsClusters.size(), [&](std::size_t k) {
    const Cluster& cluster = hsClusters[k];
    svm::Dataset data;
    for (const std::size_t m : cluster.members) data.add(hsFeat[m], +1);
    for (const svm::FeatureVector& f : nhsFeat) data.add(f, -1);

    KernelEntry& entry = det.kernels[k];
    entry.topoKey = cluster.topoKey;
    entry.hotspotCount = cluster.members.size();
    entry.scaler.fit(data.x);
    entry.scaler.transformInPlace(data.x);

    std::vector<svm::FeatureVector> valPos;
    valPos.reserve(cluster.members.size());
    for (const std::size_t m : cluster.members)
      valPos.push_back(entry.scaler.transform(hsFeat[m]));
    std::vector<svm::FeatureVector> valNeg;
    valNeg.reserve(allNhsFeat.size());
    for (const svm::FeatureVector& f : allNhsFeat)
      valNeg.push_back(entry.scaler.transform(f));

    IterativeResult res = iterativeTrain(data, valPos, valNeg, tp, ctx);
    entry.model = std::move(res.model);
    entry.finalC = res.finalC;
    entry.finalGamma = res.finalGamma;
    entry.selfIterations = res.iterations;
  });
  kernelTimer.stop();

  // Feedback kernel (Sec. III-D4): self-evaluate the non-hotspot centroids;
  // the ones some kernel still flags as hotspots ("extras") become, with
  // their ambit, the negative side of the feedback training set. The
  // votes depend only on the kernels, so the drift baseline below reuses
  // them.
  std::vector<KernelVote> nhsVotes;
  if (tp.enableFeedback) {
    engine::StageTimer feedbackTimer(ctx.stats(), "train/feedback",
                                     nhs.size(), ctx.tracer());
    std::vector<std::size_t> extraClipIdx;   // indices into nhs
    nhsVotes = voteAll(det, allNhsFeat, ctx);
    for (std::size_t i = 0; i < nhsVotes.size(); ++i) {
      if (!nhsVotes[i].flagged) continue;
      extraClipIdx.push_back(i);
      det.kernels[nhsVotes[i].kernel].feedbackApplies = true;
    }
    det.stats.feedbackExtras = extraClipIdx.size();

    if (!extraClipIdx.empty()) {
      // Sub-cluster the extras *with ambit information* and keep only the
      // sub-cluster centroids (Fig. 9c).
      std::vector<CorePattern> extraClips;
      extraClips.reserve(extraClipIdx.size());
      for (const std::size_t i : extraClipIdx)
        extraClips.push_back(CorePattern::fromClip(nhs[i], tp.layer));
      const std::vector<Cluster> sub =
          classifyPatterns(extraClips, tp.classify);

      svm::Dataset data;
      for (const Cluster& c : sub)
        data.add(buildFeatureVector(extraClips[c.representative],
                                    tp.feedbackFeatures),
                 -1);
      // Hotspot side: every hotspot cluster's members with core+ambit
      // features. (The paper uses the implicated clusters, extending to
      // all kernels when several contribute extras; training on the full
      // hotspot set lets the feedback kernel safely review every flagged
      // clip without reclaiming true hotspots of other clusters.)
      for (const Clip& c : hs)
        data.add(buildFeatureVector(CorePattern::fromClip(c, tp.layer),
                                    tp.feedbackFeatures),
                 +1);

      if (data.countLabel(1) > 0 && data.countLabel(-1) > 0) {
        det.feedbackScaler.fit(data.x);
        det.feedbackScaler.transformInPlace(data.x);
        std::vector<svm::FeatureVector> valPos, valNeg;
        for (std::size_t i = 0; i < data.size(); ++i)
          (data.y[i] > 0 ? valPos : valNeg).push_back(data.x[i]);
        det.feedbackModel = iterativeTrain(data, valPos, valNeg, tp, ctx).model;
        det.hasFeedback = true;
      }
    }
  }

  // Platt calibration on the training cores: max-kernel decision value vs
  // label, so reports can be ranked by P(hotspot).
  {
    const engine::StageTimer plattTimer(ctx.stats(), "train/platt",
                                        hs.size() + allNhsFeat.size(),
                                        ctx.tracer());
    std::vector<double> f(hsFeat.size() + allNhsFeat.size());
    std::vector<int> y(f.size());
    const auto maxDecision = [&det](const svm::FeatureVector& feat) {
      double best = -std::numeric_limits<double>::infinity();
      for (const KernelEntry& k : det.kernels)
        best = std::max(best, k.model.decision(k.scaler.transform(feat)));
      return best;
    };
    ctx.parallelFor(hsFeat.size(), [&](std::size_t i) {
      f[i] = maxDecision(hsFeat[i]);
      y[i] = +1;
    });
    ctx.parallelFor(allNhsFeat.size(), [&](std::size_t i) {
      f[hsFeat.size() + i] = maxDecision(allNhsFeat[i]);
      y[hsFeat.size() + i] = -1;
    });
    try {
      det.platt = svm::fitPlatt(f, y);
      det.hasPlatt = true;
    } catch (const std::invalid_argument&) {
      det.hasPlatt = false;  // degenerate decision distribution
    }
  }

  // Freeze the drift baseline: every training core scored through the
  // kernels exactly as eval/svm will score live windows (first flagging
  // kernel wins; unflagged cores attribute to the closest kernel), bucketed
  // into the shared MarginSketch layout. Live traffic that looks like the
  // training set then reproduces these proportions and scores PSI ~ 0.
  if (!det.kernels.empty()) {
    const engine::StageTimer baselineTimer(ctx.stats(), "train/baseline",
                                           hsFeat.size() + allNhsFeat.size(),
                                           ctx.tracer());
    std::vector<KernelVote> votes = voteAll(det, hsFeat, ctx);
    if (!tp.enableFeedback) nhsVotes = voteAll(det, allNhsFeat, ctx);
    votes.insert(votes.end(), nhsVotes.begin(), nhsVotes.end());
    det.baseline.clusters.resize(det.kernels.size());
    const std::vector<std::string> names = det.clusterNames();
    for (std::size_t k = 0; k < det.kernels.size(); ++k)
      det.baseline.clusters[k].name = names[k];
    for (const KernelVote& v : votes) {
      obs::ModelBaseline::Cluster& c = det.baseline.clusters[v.kernel];
      ++c.buckets[obs::MarginSketch::bucketOf(v.margin)];
      ++(v.flagged ? c.hot : c.cold);
    }
    det.hasBaseline = true;
  }

  det.stats.trainSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return det;
}

Detector trainDetector(const std::vector<Clip>& training,
                       const TrainParams& tp) {
  engine::RunContext ctx(tp.threads);
  return trainDetector(training, tp, ctx);
}

double Detector::hotspotProbability(const CorePattern& core) const {
  const double f = decisionValue(core);
  return hasPlatt ? platt.probability(f) : (f > 0 ? 1.0 : 0.0);
}

void Detector::voteCores(std::span<const svm::FeatureVector* const> feats,
                         double bias, std::span<KernelVote> out) const {
  if (out.size() != feats.size())
    throw std::invalid_argument("Detector::voteCores: size mismatch");
  for (std::size_t c0 = 0; c0 < feats.size(); c0 += kVoteChunk) {
    const std::size_t n = std::min(kVoteChunk, feats.size() - c0);
    // Chunk positions still unflagged, in order; a flagged core leaves
    // the list at its first flagging kernel, as the OR vote stops there.
    std::size_t open[kVoteChunk];
    std::size_t nOpen = n;
    for (std::size_t i = 0; i < n; ++i) {
      open[i] = i;
      out[c0 + i] = KernelVote{};
    }
    for (std::size_t k = 0; k < kernels.size() && nOpen > 0; ++k) {
      const KernelEntry& ke = kernels[k];
      const std::size_t dim = ke.scaler.dim();
      engine::ArenaScope scope(engine::threadScratch());
      const std::span<double> xs =
          scope.arena().allocSpan<double>(nOpen * dim);
      for (std::size_t r = 0; r < nOpen; ++r)
        ke.scaler.transformInto(*feats[c0 + open[r]], xs.data() + r * dim);
      double d[kVoteChunk];
      ke.model.decisionsFrom(xs, {d, nOpen});
      std::size_t kept = 0;
      for (std::size_t r = 0; r < nOpen; ++r) {
        KernelVote& v = out[c0 + open[r]];
        if (d[r] > bias) {
          v = {true, k, d[r]};
          continue;
        }
        if (k == 0 || d[r] > v.margin) {
          v.kernel = k;
          v.margin = d[r];
        }
        open[kept++] = open[r];
      }
      nOpen = kept;
    }
  }
}

bool Detector::evaluateCore(const CorePattern& core, double bias) const {
  const svm::FeatureVector feat = buildFeatureVector(core, params.features);
  const svm::FeatureVector* const p = &feat;
  KernelVote v;
  voteCores({&p, 1}, bias, {&v, 1});
  return v.flagged;
}

double Detector::decisionValue(const CorePattern& core) const {
  const svm::FeatureVector feat = buildFeatureVector(core, params.features);
  double best = -std::numeric_limits<double>::infinity();
  for (const KernelEntry& k : kernels)
    best = std::max(best, k.model.decision(k.scaler.transform(feat)));
  return best;
}

bool Detector::evaluateClip(const Clip& clip, double bias,
                            bool useFeedback) const {
  if (!evaluateCore(CorePattern::fromCore(clip, params.layer), bias))
    return false;
  if (useFeedback && hasFeedback) {
    const svm::FeatureVector fb = buildFeatureVector(
        CorePattern::fromClip(clip, params.layer), params.feedbackFeatures);
    if (feedbackModel.predict(feedbackScaler.transform(fb)) < 0)
      return false;  // reclaimed as non-hotspot by the ambit-aware kernel
  }
  return true;
}

namespace {

void saveScaler(std::ostream& os, const svm::Scaler& s) {
  os << s.dim() << '\n';
  os.precision(17);
  for (const double v : s.mins()) os << v << ' ';
  os << '\n';
  for (const double v : s.maxs()) os << v << ' ';
  os << '\n';
}

svm::Scaler loadScaler(std::istream& is) {
  std::size_t d = 0;
  is >> d;
  std::vector<double> lo(d), hi(d);
  for (double& v : lo) is >> v;
  for (double& v : hi) is >> v;
  return svm::Scaler(std::move(lo), std::move(hi));
}

void saveFeatureParams(std::ostream& os, const FeatureParams& f) {
  os << f.maxInternal << ' ' << f.maxExternal << ' ' << f.maxDiagonal << ' '
     << f.maxSegment << ' ' << f.densityGridN << ' ' << int(f.canonicalize)
     << '\n';
}

FeatureParams loadFeatureParams(std::istream& is) {
  FeatureParams f;
  int canon = 1;
  is >> f.maxInternal >> f.maxExternal >> f.maxDiagonal >> f.maxSegment >>
      f.densityGridN >> canon;
  f.canonicalize = canon != 0;
  return f;
}

// The fingerprint walk: the same fields saveCore writes, in the same
// order, each double mixed by its exact bits. Every sequence is prefixed
// by its length so the flat stream stays unambiguous.
std::uint64_t hashDoubles(std::uint64_t h, const std::vector<double>& v) {
  h = hashCombine(h, hashMix(v.size()));
  for (const double d : v) h = hashCombine(h, hashDouble(d));
  return h;
}

std::uint64_t hashScaler(std::uint64_t h, const svm::Scaler& s) {
  return hashDoubles(hashDoubles(h, s.mins()), s.maxs());
}

std::uint64_t hashModel(std::uint64_t h, const svm::SvmModel& m) {
  h = hashCombine(h, hashDouble(m.gamma()));
  h = hashCombine(h, hashDouble(m.rho()));
  h = hashDoubles(h, m.coefficients());
  for (const svm::FeatureVector& sv : m.supportVectors())
    h = hashDoubles(h, sv);
  return h;
}

std::uint64_t hashFeatureParams(std::uint64_t h, const FeatureParams& f) {
  for (const std::size_t v : {f.maxInternal, f.maxExternal, f.maxDiagonal,
                              f.maxSegment, f.densityGridN,
                              std::size_t(f.canonicalize)})
    h = hashCombine(h, hashMix(v));
  return h;
}

}  // namespace

// Detector::fingerprint() walks these same fields by hand; the
// DetectorFingerprint tests (tests/test_model_obs.cpp) keep the two in step.
void Detector::saveCore(std::ostream& os) const {
  // max_digits10 before the first double (the kernel lines' finalC and
  // finalGamma), so every value reloads to the same bits.
  os.precision(17);
  os << "hsd_detector 2\n";
  os << params.clip.coreSide << ' ' << params.clip.clipSide << ' '
     << params.layer << '\n';
  saveFeatureParams(os, params.features);
  saveFeatureParams(os, params.feedbackFeatures);
  os << kernels.size() << '\n';
  for (const KernelEntry& k : kernels) {
    os << "kernel " << k.hotspotCount << ' ' << k.finalC << ' '
       << k.finalGamma << ' ' << k.selfIterations << ' '
       << int(k.feedbackApplies) << '\n';
    saveScaler(os, k.scaler);
    k.model.save(os);
  }
  os << int(hasFeedback) << '\n';
  if (hasFeedback) {
    saveScaler(os, feedbackScaler);
    feedbackModel.save(os);
  }
  os << int(hasPlatt) << ' ' << platt.a << ' ' << platt.b << '\n';
}

void Detector::save(std::ostream& os) const {
  saveCore(os);
  // The drift baseline rides after the fingerprinted core as an optional
  // trailing section — files saved before baselines existed load
  // unchanged, and old readers would stop before it anyway.
  if (hasBaseline) baseline.save(os);
}

std::vector<std::string> Detector::clusterNames() const {
  std::vector<std::string> names(kernels.size());
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    if (!kernels[i].topoKey.empty()) {
      names[i] = kernels[i].topoKey;
    } else if (hasBaseline && i < baseline.clusters.size()) {
      // topoKey is not serialized; a loaded detector recovers the names
      // from its baseline section so live slots match baseline clusters.
      names[i] = baseline.clusters[i].name;
    } else {
      names[i] = "k" + std::to_string(i);
    }
  }
  return names;
}

std::uint64_t Detector::fingerprint() const {
  // Hashes the in-memory values, never a serialized string: no allocation,
  // and a one-ulp change to any double changes the key. Not memoized — the
  // fields are public and mutable, so a stored value could go stale.
  std::uint64_t h = hashString("hsd_detector/fingerprint/v1");
  h = hashCombine(h, params.clip.fingerprint());
  h = hashCombine(h, hashMix(params.layer));
  h = hashFeatureParams(h, params.features);
  h = hashFeatureParams(h, params.feedbackFeatures);
  h = hashCombine(h, hashMix(kernels.size()));
  for (const KernelEntry& k : kernels) {
    h = hashCombine(h, hashMix(k.hotspotCount));
    h = hashCombine(h, hashDouble(k.finalC));
    h = hashCombine(h, hashDouble(k.finalGamma));
    h = hashCombine(h, hashMix(k.selfIterations));
    h = hashCombine(h, hashMix(k.feedbackApplies ? 1 : 0));
    h = hashModel(hashScaler(h, k.scaler), k.model);
  }
  h = hashCombine(h, hashMix(hasFeedback ? 1 : 0));
  if (hasFeedback) h = hashModel(hashScaler(h, feedbackScaler), feedbackModel);
  h = hashCombine(h, hashMix(hasPlatt ? 1 : 0));
  h = hashCombine(h, hashDouble(platt.a));
  return hashCombine(h, hashDouble(platt.b));
}

Detector Detector::load(std::istream& is) {
  std::string magic;
  int version = 0;
  is >> magic >> version;
  if (magic != "hsd_detector" || version != 2)
    throw std::runtime_error("Detector::load: bad header");
  Detector det;
  int layer = 0;
  is >> det.params.clip.coreSide >> det.params.clip.clipSide >> layer;
  det.params.layer = LayerId(layer);
  det.params.features = loadFeatureParams(is);
  det.params.feedbackFeatures = loadFeatureParams(is);
  std::size_t nk = 0;
  is >> nk;
  det.kernels.resize(nk);
  for (KernelEntry& k : det.kernels) {
    std::string kw;
    int fba = 0;
    is >> kw >> k.hotspotCount >> k.finalC >> k.finalGamma >>
        k.selfIterations >> fba;
    k.feedbackApplies = fba != 0;
    if (kw != "kernel") throw std::runtime_error("Detector::load: bad kernel");
    k.scaler = loadScaler(is);
    k.model = svm::SvmModel::load(is);
  }
  int fb = 0;
  is >> fb;
  det.hasFeedback = fb != 0;
  if (det.hasFeedback) {
    det.feedbackScaler = loadScaler(is);
    det.feedbackModel = svm::SvmModel::load(is);
  }
  int hp = 0;
  is >> hp >> det.platt.a >> det.platt.b;
  det.hasPlatt = hp != 0;
  if (!is) throw std::runtime_error("Detector::load: truncated");
  std::string kw;
  if (is >> kw) {
    if (kw != "baseline")
      throw std::runtime_error("Detector::load: unexpected trailer '" + kw +
                               "'");
    det.baseline = obs::ModelBaseline::load(is);
    det.hasBaseline = true;
  }
  return det;
}

}  // namespace hsd::core
