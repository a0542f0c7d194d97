/// \file main.cpp
/// The repository benchmark: one workload per process, run on two lanes
/// that are built the same way and differ only in `EngineConfig::arch`
/// (SimTitanXp vs NativeCpu), alternating pass by pass so host drift hits
/// both alike. Prints every metric by name and unit, the operations
/// attempted and failed and the verdict of the correctness checks as one
/// JSON object on the last line of standard output.
///
///   acs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
/// adds traced passes (the benchmark's own spans around every public call
/// plus the engine's TraceSession stage spans), reports the per-layer
/// metrics and writes the spans to .bench_out/.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/acspgemm.hpp"
#include "core/chunk.hpp"
#include "estimate/estimator.hpp"
#include "runtime/engine.hpp"
#include "runtime/fingerprint.hpp"
#include "serve/server.hpp"
#include "trace/metrics.hpp"
#include "tune/features.hpp"
#include "tune/predictor.hpp"
#include "tune/tuner.hpp"

namespace pb {
namespace {

using acs::arch::ArchId;

constexpr int kLanes = 2;
constexpr const char* kLaneName[kLanes] = {"sim", "native"};
constexpr ArchId kLaneArch[kLanes] = {ArchId::kSimTitanXp, ArchId::kNativeCpu};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

struct Outcome {
  bool ok = false;
  std::string error;
  Mat c;
  acs::SpgemmStats stats;
  acs::TunedParams tuned;
  bool degraded = false;
  bool plan_hit = false;
  std::size_t reused_bytes = 0;
  double latency_s = 0.0;
  double submit_s = 0.0;  ///< duration of the submit call itself
  std::shared_ptr<acs::trace::TraceSession> trace;
  Mat a_used, b_used;  ///< operands, kept only where a later probe needs them
};

acs::runtime::EngineConfig engine_config(const Workload& w, int lane,
                                         bool traced) {
  acs::runtime::EngineConfig e;
  e.workers = w.workers;
  e.arch = kLaneArch[lane];
  e.native_threads = 1;
  e.collect_job_traces = traced;
  e.background_retune = false;
  if (w.name == "cold_stream") e.tuning = acs::tune::TuningMode::kFeedback;
  return e;
}

/// One lane's system under test: an Engine, or a Server over one.
class Executor {
 public:
  Executor(const Workload& w, int lane, bool traced) {
    if (w.serve) {
      acs::serve::ServerConfig sc;
      sc.engine = engine_config(w, lane, traced);
      sc.tenants = {{.name = "poisson2d"}, {.name = "poisson3d"}};
      sc.admission.executors = w.workers;
      server_ = std::make_unique<acs::serve::Server<double>>(sc);
    } else {
      engine_ =
          std::make_unique<acs::runtime::Engine<double>>(engine_config(w, lane, traced));
    }
  }

  struct Ticket {
    acs::runtime::JobHandle<double> job;
    acs::serve::ServeHandle<double> served;
    Clock::time_point t0;
    double submit_s = 0.0;
  };

  Ticket submit(const Job& job, const Mat& a, const Mat& b) {
    Ticket t;
    t.t0 = Clock::now();
    if (server_) {
      // Arrivals a virtual second apart: the modeled executors are always
      // free, so admission never refuses and the run measures service.
      arrival_ += 1.0;
      t.served = server_->submit(
          a, b, {.tenant = job.chain == 0 ? "poisson2d" : "poisson3d",
                 .arrival_s = arrival_},
          job.cfg);
    } else {
      t.job = engine_->submit(a, b, job.cfg);
    }
    t.submit_s = seconds_since(t.t0);
    return t;
  }

  Outcome wait(Ticket& t) {
    Outcome o;
    o.submit_s = t.submit_s;
    if (server_) {
      auto& r = t.served.result();
      o.latency_s = seconds_since(t.t0);
      o.degraded = r.degraded;
      o.tuned = r.tuned_applied;
      if (r.status != acs::serve::ServeStatus::kDone) {
        o.error = std::string("serve status ") + acs::serve::to_string(r.status);
        return o;
      }
      take(r.job, o);
    } else {
      try {
        auto& r = t.job.result();
        o.latency_s = seconds_since(t.t0);
        o.tuned = r.tuned;
        take(r, o);
      } catch (const std::exception& e) {
        o.latency_s = seconds_since(t.t0);
        o.error = e.what();
      }
    }
    return o;
  }

 private:
  static void take(acs::runtime::JobResult<double>& r, Outcome& o) {
    o.ok = !r.failed();
    o.c = std::move(r.c);
    o.stats = r.stats;
    o.plan_hit = r.plan_hit;
    o.reused_bytes = r.pool_reused_bytes;
    o.trace = r.trace;
  }

  std::unique_ptr<acs::runtime::Engine<double>> engine_;
  std::unique_ptr<acs::serve::Server<double>> server_;
  double arrival_ = 0.0;
};

struct PassStats {
  double wall_s = 0.0;
  /// Wall time of each wave, from the end of the previous one (the pass's
  /// start for the first); they add up to `wall_s`.
  std::vector<double> wave_s;
  HeapCounts heap;
  std::uint64_t minor_faults = 0;
  std::vector<Outcome> out;
};

/// Everything a run learns about one lane.
struct LaneData {
  std::unique_ptr<Executor> exec;         ///< warm workloads: the lane
  std::unique_ptr<Executor> traced_exec;  ///< trace mode, warm workloads
  std::vector<std::vector<double>> wave_s;  ///< per wave, untraced passes
  std::vector<double> traced_pass_s, untraced_pass_s;
  std::vector<std::vector<double>> latency_s;  ///< per job
  std::vector<double> submit_s;
  std::map<std::string, std::vector<double>> stage_ms;  ///< traced passes
  HeapCounts heap;
  std::uint64_t faults = 0, timed_jobs = 0, hits = 0;
  double reused_bytes = 0.0;
  std::size_t step = 0;
  std::optional<PassStats> first_timed;  ///< first untraced throughput pass
};

class Bench {
 public:
  Bench(Workload w, std::uint64_t seed, bool traced)
      : w_(std::move(w)), seed_(seed), traced_(traced), log_(traced) {
    for (auto& l : lanes_) l.latency_s.resize(w_.jobs.size());
    for (auto& f : first_) f.resize(w_.jobs.size());
  }

  int run(double seconds);

 private:
  PassStats pass(int lane, bool serial, bool traced);
  void verify(int lane, const PassStats& p, double scale, bool setup);
  void fail(const std::string& what) {
    if (correct_) std::cerr << "perfbench: check failed: " << what << "\n";
    correct_ = false;
  }
  void round(int r);
  void layer_probes(std::map<std::string, std::pair<double, std::string>>& m);
  void record_trace(const Outcome& o, int job_span, int lane);

  Workload w_;
  std::uint64_t seed_;
  bool traced_;
  SpanLog log_;
  LaneData lanes_[kLanes];
  std::vector<Reference> refs_;
  /// Per job and lane: first verified timed result, keyed by the tuned
  /// overlay it ran with (a different overlay may round differently).
  struct First {
    acs::TunedParams tuned;
    bool degraded = false;
    Mat c;
    double scale = 1.0;
  };
  std::vector<std::vector<First>> first_[kLanes];
  std::int64_t attempted_ = 0, failed_ = 0, next_job_id_ = 0;
  bool correct_ = true;
  double verify_s_ = 0.0;
  std::size_t degraded_ = 0;
};

/// One pass over the workload on `lane`. Throughput passes (`serial` off)
/// submit each wave at once and time the whole pass; latency rounds keep
/// one job in flight and time each from submit to result.
PassStats Bench::pass(int lane, bool serial, bool traced) {
  LaneData& L = lanes_[lane];
  const double scale = w_.scale(L.step);
  ++L.step;
  // Rescaled level-0 operators are the user's input: prepared untimed.
  std::vector<Mat> scaled(w_.jobs.size());
  for (std::size_t j = 0; j < w_.jobs.size(); ++j) {
    if (!w_.jobs[j].scaled_input) continue;
    scaled[j] = w_.jobs[j].a;
    for (double& v : scaled[j].values) v *= scale;
  }
  PassStats p;
  p.out.resize(w_.jobs.size());
  const bool spans = traced && log_.enabled();
  const int pass_span = spans ? log_.add("pass", log_.now(), 0.0, -1, -1, lane) : -1;

  std::unique_ptr<Executor> fresh;
  const auto heap0 = heap_counts();
  const auto faults0 = usage_now().minor_faults;
  const auto t0 = Clock::now();
  auto wave_start = t0;
  if (w_.fresh_engines && !serial) fresh = std::make_unique<Executor>(w_, lane, traced);
  const auto exec_for = [&]() -> Executor& {
    if (w_.fresh_engines) {
      if (!fresh) fresh = std::make_unique<Executor>(w_, lane, traced);
      return *fresh;
    }
    return traced ? *L.traced_exec : *L.exec;
  };

  for (const auto& wave : w_.waves) {
    // A wave's jobs are in flight together; latency rounds run them one
    // at a time in the same order.
    std::vector<std::pair<int, Executor::Ticket>> tickets;
    std::vector<double> starts;
    const auto finish = [&](std::pair<int, Executor::Ticket>& t, double start) {
      Outcome o = exec_for().wait(t.second);
      ++attempted_;
      if (!o.ok) {
        ++failed_;
        std::cerr << "perfbench: " << w_.jobs[static_cast<std::size_t>(t.first)].name
                  << " failed: " << o.error << "\n";
      }
      if (spans) {
        const std::int64_t id = next_job_id_++;
        // Submit to result; its self time is what the serving/runtime layer
        // spends around the pipeline stages (queueing, plan lookup, tuning).
        const int job_span = log_.add(w_.serve ? "serve.job" : "runtime.job", start,
                                      log_.now(), pass_span, id, lane);
        log_.add(w_.serve ? "serve.submit" : "runtime.submit", start,
                 start + o.submit_s, job_span, id, lane);
        record_trace(o, job_span, lane);
      }
      p.out[static_cast<std::size_t>(t.first)] = std::move(o);
    };
    for (const int j : wave) {
      const Job& job = w_.jobs[static_cast<std::size_t>(j)];
      const Outcome* fa = job.a_from >= 0 ? &p.out[static_cast<std::size_t>(job.a_from)] : nullptr;
      const Outcome* fb = job.b_from >= 0 ? &p.out[static_cast<std::size_t>(job.b_from)] : nullptr;
      if ((fa && !fa->ok) || (fb && !fb->ok)) {
        ++attempted_;
        ++failed_;
        p.out[static_cast<std::size_t>(j)].error = "input job failed";
        continue;
      }
      const Mat& a = fa ? fa->c : job.scaled_input ? scaled[static_cast<std::size_t>(j)] : job.a;
      const Mat& b = fb ? fb->c : job.b;
      const double start = log_.now();
      tickets.emplace_back(j, exec_for().submit(job, a, b));
      starts.push_back(start);
      if (serial) {
        finish(tickets.back(), start);
        tickets.pop_back();
        starts.pop_back();
      }
    }
    for (std::size_t k = 0; k < tickets.size(); ++k) finish(tickets[k], starts[k]);
    const auto wave_end = Clock::now();
    p.wave_s.push_back(std::chrono::duration<double>(wave_end - wave_start).count());
    wave_start = wave_end;
  }
  p.wall_s = seconds_since(t0);
  const auto heap1 = heap_counts();
  p.heap = {heap1.allocs - heap0.allocs, heap1.bytes - heap0.bytes};
  p.minor_faults = usage_now().minor_faults - faults0;
  log_.end(pass_span);
  fresh.reset();
  return p;
}

void Bench::record_trace(const Outcome& o, int job_span, int lane) {
  if (!o.trace) return;
  // Session times are relative to the session's creation; anchor them on
  // the benchmark clock through one simultaneous reading of both.
  const double offset = log_.now() - o.trace->elapsed_s();
  std::map<acs::trace::SpanId, int> ids;
  const auto spans = o.trace->spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const int parent = s.parent == acs::trace::kNoSpan ? job_span : ids[s.parent];
    ids[static_cast<acs::trace::SpanId>(i)] =
        log_.add(s.name, s.start_s + offset, s.end_s + offset, parent, -1, lane);
  }
}

/// Check every result of a pass. Setup results go against the Gustavson
/// reference; timed results against the probe, the product count, the
/// Galerkin identities and the first verified result of the same overlay.
void Bench::verify(int lane, const PassStats& p, double scale, bool setup) {
  const auto v0 = Clock::now();
  struct Acc { Clock::time_point t; double& s; ~Acc() { s += seconds_since(t); } } acc{v0, verify_s_};
  for (std::size_t j = 0; j < w_.jobs.size(); ++j) {
    const Outcome& o = p.out[j];
    if (!o.ok) continue;
    const Job& job = w_.jobs[j];
    const Reference& r = refs_[j];
    const std::string where = std::string(kLaneName[lane]) + " " + job.name + ": ";
    if (auto e = check_probe(o.c, r, scale); !e.empty()) fail(where + e);
    if (auto e = check_products(o.stats.intermediate_products, r); !e.empty())
      fail(where + e);
    if (job.galerkin)
      if (auto e = check_galerkin(o.c, r, scale); !e.empty()) fail(where + e);
    if (setup) {
      if (scale == 1.0)
        if (auto e = check_reference(o.c, r); !e.empty()) fail(where + e);
      continue;
    }
    auto& firsts = first_[lane][j];
    auto it = std::find_if(firsts.begin(), firsts.end(), [&](const First& f) {
      return f.tuned == o.tuned && f.degraded == o.degraded;
    });
    if (it == firsts.end()) {
      // New overlay: verify against the reference at scale 1, then keep it.
      Mat unscaled = o.c;
      for (double& v : unscaled.values) v /= scale;
      if (auto e = check_reference(unscaled, r); !e.empty()) fail(where + e);
      firsts.push_back({o.tuned, o.degraded, o.c, scale});
    } else if (!equals_scaled(o.c, it->c, scale / it->scale)) {
      fail(where + "not bit-identical to its first verified result");
    }
  }
}

void Bench::round(int r) {
  // Lane order alternates pass by pass (and with the seed across runs).
  const int first = static_cast<int>((static_cast<std::uint64_t>(r) + seed_) % 2);
  const int order[kLanes] = {first, 1 - first};
  for (const int lane : order) {
    LaneData& L = lanes_[lane];
    const auto untraced = [&] {
      const double scale = w_.scale(L.step);
      PassStats p = pass(lane, false, false);
      verify(lane, p, scale, false);
      L.untraced_pass_s.push_back(p.wall_s);
      L.wave_s.resize(p.wave_s.size());
      for (std::size_t k = 0; k < p.wave_s.size(); ++k) L.wave_s[k].push_back(p.wave_s[k]);
      L.heap.allocs += p.heap.allocs;
      L.heap.bytes += p.heap.bytes;
      L.faults += p.minor_faults;
      for (const Outcome& o : p.out) {
        ++L.timed_jobs;
        L.hits += o.plan_hit;
        L.reused_bytes += static_cast<double>(o.reused_bytes);
        L.submit_s.push_back(o.submit_s);
        degraded_ += o.degraded;
      }
      if (L.first_timed) return;
      for (std::size_t j = 0; j < w_.jobs.size(); ++j) {
        // Keep the operands each job ran on for the direct-call probes.
        const Job& job = w_.jobs[j];
        Outcome& o = p.out[j];
        o.a_used = job.a_from >= 0 ? p.out[static_cast<std::size_t>(job.a_from)].c : job.a;
        o.b_used = job.b_from >= 0 ? p.out[static_cast<std::size_t>(job.b_from)].c : job.b;
      }
      L.first_timed = std::move(p);
    };
    const auto traced = [&] {
      const double scale = w_.scale(L.step);
      PassStats t = pass(lane, false, true);
      verify(lane, t, scale, false);
      L.traced_pass_s.push_back(t.wall_s);
      std::map<std::string, double> stage;
      for (const Outcome& o : t.out) {
        degraded_ += o.degraded;
        if (!o.trace) continue;
        for (const auto& sp : o.trace->spans())
          if (acs::trace::stage_index(sp.name) >= 0)
            stage[sp.name] += (sp.end_s - sp.start_s) * 1e3;
      }
      for (const char* name : acs::trace::kStageNames)
        L.stage_ms[name].push_back(stage[name]);
    };
    // The traced pass goes first every other round, so the tracing
    // overhead is not biased by which of the two passes finds warm caches.
    if (traced_ && r % 2) traced();
    untraced();
    if (traced_ && r % 2 == 0) traced();
  }
  for (const int lane : order) {
    LaneData& L = lanes_[lane];
    const double scale = w_.scale(L.step);
    PassStats p = pass(lane, true, false);
    verify(lane, p, scale, false);
    for (std::size_t j = 0; j < w_.jobs.size(); ++j) {
      L.latency_s[j].push_back(p.out[j].latency_s);
      degraded_ += p.out[j].degraded;
    }
  }
}

template <class F>
double median_us(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    t.push_back(seconds_since(t0) * 1e6);
  }
  return median(t);
}

/// Direct calls into each layer's public functions, timed from outside, on
/// the operands and overlays of the first timed pass.
void Bench::layer_probes(std::map<std::string, std::pair<double, std::string>>& m) {
  const bool tunes = w_.serve || w_.name == "cold_stream";
  std::vector<double> fp_us, feat_us, choose_us, rank_ms, pool_us, ratios,
      reported_ratios;
  double predicted_s = 0.0, simulated_s = 0.0;
  double multiply_ms[kLanes] = {0.0, 0.0};
  std::vector<double> overhead_us[kLanes];
  const auto& sim_pass = *lanes_[0].first_timed;
  for (std::size_t j = 0; j < w_.jobs.size(); ++j) {
    const Outcome& o = sim_pass.out[j];
    if (!o.ok) continue;
    const Mat& a = o.a_used;
    const Mat& b = o.b_used;
    acs::Config cfg = w_.jobs[j].cfg;
    o.tuned.apply(cfg);
    const int reps = 5;
    const int id = log_.add("probe", log_.now(), 0.0, -1, static_cast<std::int64_t>(j), 0);
    const auto span = [&](const char* name, auto&& f) {
      const double s = log_.now();
      f();
      log_.add(name, s, log_.now(), id, static_cast<std::int64_t>(j), 0);
    };

    fp_us.push_back(median_us(reps, [&] {
      span("runtime.fingerprint", [&] {
        volatile auto h = acs::runtime::fingerprint(a, b, ArchId::kSimTitanXp).hash();
        (void)h;
      });
    }));
    const acs::tune::TunerOptions topts =
        acs::tune::default_tuner_options(ArchId::kSimTitanXp);
    acs::tune::TuneFeatures f;
    const double fu = median_us(reps, [&] {
      span("tune.extract_features", [&] {
        f = acs::tune::extract_features(a, b, topts.sample_stride, topts.min_samples);
      });
    });
    const acs::tune::AutoTuner tuner(topts);
    const auto products = static_cast<double>(o.stats.intermediate_products);
    if (tunes) {
      feat_us.push_back(fu);
      choose_us.push_back(median_us(reps, [&] {
        span("tune.choose_budgeted", [&] {
          volatile bool v = tuner.choose_budgeted(f, cfg, sizeof(double), 0).valid;
          (void)v;
        });
      }));
      rank_ms.push_back(1e-3 * median_us(1, [&] {
        span("tune.rank", [&] {
          volatile std::size_t n = tuner.rank(f, cfg, sizeof(double), products).size();
          (void)n;
        });
      }));
    }
    predicted_s += acs::tune::predict_cost(f, cfg, sizeof(double), products).total_s;
    simulated_s += o.stats.sim_time_s;

    acs::estimate::PoolSizingParams pp;
    pp.quantile = cfg.pool_estimate_quantile;
    pp.sample_stride = cfg.pool_sample_stride;
    pp.min_samples = cfg.pool_min_samples;
    pp.chunk_entry_capacity = static_cast<std::size_t>(
        std::max(1, cfg.temp_capacity() - cfg.retain_capacity()));
    pp.entry_bytes = acs::kChunkEntryBytes<double>;
    pp.chunk_header_bytes = acs::kChunkHeaderBytes;
    pp.pointer_chunk_bytes = acs::kPointerChunkBytes;
    pp.long_row_threshold =
        cfg.long_row_handling ? cfg.effective_long_row_threshold() : 0;
    pp.lower_bound_bytes = 0;  // the estimator's own output, not the floor
    std::size_t recommended = 0;
    pool_us.push_back(median_us(reps, [&] {
      span("estimate.plan_pool_bytes", [&] {
        recommended = acs::estimate::plan_pool_bytes(a, b, pp).recommended_bytes;
      });
    }));

    for (int lane = 0; lane < kLanes; ++lane) {
      acs::Config lcfg = cfg;
      acs::runtime::apply_arch(lcfg, engine_config(w_, lane, false));
      acs::SpgemmPlan plan;
      acs::SpgemmStats st;
      acs::sim::BlockScheduler sched(lcfg.scheduler_threads);
      (void)acs::multiply_planned(a, b, lcfg, plan, &st, &sched);
      if (lane == 0 && st.pool_used_bytes > 0) {
        acs::SpgemmStats direct;
        (void)acs::multiply(a, b, cfg, &direct);
        ratios.push_back(static_cast<double>(recommended) /
                         static_cast<double>(direct.pool_used_bytes));
      }
      const double us = median_us(3, [&] {
        span(lane == 0 ? "core.multiply_planned.sim" : "core.multiply_planned.native", [&] {
          (void)acs::multiply_planned(a, b, lcfg, plan, &st, &sched);
        });
      });
      multiply_ms[lane] += us * 1e-3;
      overhead_us[lane].push_back(median(lanes_[lane].latency_s[j]) * 1e6 - us);
    }
    log_.end(id);
    // The engine's own estimate error, as it reports it per job.
    for (int lane = 0; lane < kLanes; ++lane) {
      const Outcome& lo = lanes_[lane].first_timed->out[j];
      if (lo.ok && lo.stats.pool_used_bytes > 0)
        reported_ratios.push_back(static_cast<double>(lo.stats.pool_estimate_bytes) /
                                  static_cast<double>(lo.stats.pool_used_bytes));
    }
  }
  std::sort(ratios.begin(), ratios.end());
  const auto put = [&](const std::string& k, double v, const char* unit) { m[k] = {v, unit}; };
  put("runtime.fingerprint_us", mean(fp_us), "us");
  put("tune.extract_features_us", mean(feat_us), "us");
  put("tune.cold_choose_us", mean(choose_us), "us");
  put("tune.rerank_ms", mean(rank_ms), "ms");
  put("tune.predicted_over_simulated", simulated_s > 0 ? predicted_s / simulated_s : 0.0, "ratio");
  put("estimate.plan_pool_us", mean(pool_us), "us");
  put("estimate.ratio_p50", median(ratios), "ratio");
  put("estimate.ratio_max", ratios.empty() ? 0.0 : ratios.back(), "ratio");
  put("estimate.reported_ratio_max",
      reported_ratios.empty() ? 0.0 : *std::max_element(reported_ratios.begin(), reported_ratios.end()),
      "ratio");
  put("core.multiply_ms.sim", multiply_ms[0], "ms");
  put("core.multiply_ms.native", multiply_ms[1], "ms");
  put("sim.pricing_ms", multiply_ms[0] - multiply_ms[1], "ms");
  put("runtime.engine_overhead_us.sim", mean(overhead_us[0]), "us");
  put("runtime.engine_overhead_us.native", mean(overhead_us[1]), "us");
}

int Bench::run(double seconds) {
  const double calib_start = calib_ms();
  // Set-up: build both lanes and run the first, cold pass over every
  // structure on each, until the background tuning that first sight starts
  // in the server has finished — timed as one cold set-up. Waiting for it
  // before the next lane also keeps a lane's tuner thread from running
  // beside the other lane's workers.
  const auto setup0 = Clock::now();
  PassStats setup_pass[kLanes];
  for (int lane = 0; lane < kLanes; ++lane) {
    if (!w_.fresh_engines) lanes_[lane].exec = std::make_unique<Executor>(w_, lane, false);
    setup_pass[lane] = pass(lane, false, false);
    wait_until_idle();
  }
  const double setup_s = seconds_since(setup0);

  // References once per distinct job, from the operands the sim set-up
  // pass ran on, rescaled back to scale 1.
  const double s0 = w_.scale(0);
  for (std::size_t j = 0; j < w_.jobs.size(); ++j) {
    const Job& job = w_.jobs[j];
    const auto unscale = [&](Mat m) {
      for (double& v : m.values) v /= s0;
      return m;
    };
    if (!setup_pass[0].out[j].ok) throw std::runtime_error("set-up job " + job.name + " failed");
    const Mat a = job.a_from >= 0 ? unscale(setup_pass[0].out[static_cast<std::size_t>(job.a_from)].c) : job.a;
    const Mat b = job.b_from >= 0 ? unscale(setup_pass[0].out[static_cast<std::size_t>(job.b_from)].c) : job.b;
    refs_.push_back(make_reference(a, b, seed_ * 1000003 + j));
    if (job.galerkin) {
      const Job& fine = w_.jobs[static_cast<std::size_t>(job.sum_of)];
      set_galerkin_fine(refs_.back(),
                        fine.a_from >= 0 ? unscale(setup_pass[0].out[static_cast<std::size_t>(fine.a_from)].c) : fine.a);
    }
  }
  for (int lane = 0; lane < kLanes; ++lane) {
    for (std::size_t j = 0; j < w_.jobs.size(); ++j) {
      Outcome& o = setup_pass[lane].out[j];
      degraded_ += o.degraded;
      if (o.ok) for (double& v : o.c.values) v /= s0;
    }
    verify(lane, setup_pass[lane], 1.0, true);
  }
  // Every check must catch a corrupted result: on the first job, and on
  // the first Galerkin product where there is one.
  std::vector<std::size_t> probed = {0};
  for (std::size_t j = 0; j < w_.jobs.size(); ++j)
    if (w_.jobs[j].galerkin) {
      probed.push_back(j);
      break;
    }
  for (const std::size_t j : probed)
    for (const auto& miss : self_test(setup_pass[0].out[j].c, refs_[j], w_.jobs[j].galerkin))
      fail("self-test: " + w_.jobs[j].name + ": " + miss);

  // Warm-up, untimed: one more pass per warm lane, the first to run on
  // tuned plans under the server; trace mode builds and warms the traced
  // lanes the same way.
  if (!w_.fresh_engines) {
    for (int lane = 0; lane < kLanes; ++lane) {
      for (const bool traced : {false, true}) {
        if (traced && !traced_) continue;
        if (traced) lanes_[lane].traced_exec = std::make_unique<Executor>(w_, lane, true);
        for (int k = traced ? 0 : 1; k < 2; ++k) {
          const double scale = w_.scale(lanes_[lane].step);
          verify(lane, pass(lane, false, traced), scale, false);
          wait_until_idle();
        }
      }
    }
  }

  const auto t0 = Clock::now();
  double last_round = 0.0;
  int rounds = 0;
  do {
    const auto r0 = Clock::now();
    round(rounds++);
    last_round = seconds_since(r0);
  } while (seconds_since(t0) + 0.5 * last_round < seconds);

  // The two lanes must agree bit for bit wherever they ran the same overlay.
  for (std::size_t j = 0; j < w_.jobs.size(); ++j)
    for (const First& s : first_[0][j])
      for (const First& n : first_[1][j])
        if (s.tuned == n.tuned && s.degraded == n.degraded &&
            !equals_scaled(n.c, s.c, n.scale / s.scale))
          fail("lanes disagree on " + w_.jobs[j].name);

  std::map<std::string, std::pair<double, std::string>> m;
  const auto put = [&](const std::string& k, double v, const char* unit) { m[k] = {v, unit}; };
  if (!traced_) {
    for (int lane = 0; lane < kLanes; ++lane) {
      const LaneData& L = lanes_[lane];
      std::vector<double> per_job;
      for (const auto& v : L.latency_s) per_job.push_back(median(v) * 1e3);
      // A pass is timed wave by wave and each wave's median taken apart, so
      // a stall of the host filters out at the grain of one wave, as a
      // single job's does in the latency rounds; with one wave this is the
      // median pass.
      double pass_s = 0.0;
      for (const auto& v : L.wave_s) pass_s += median(v);
      put(std::string(kLaneName[lane]) + ".jobs_per_s",
          static_cast<double>(w_.jobs.size()) / pass_s, "jobs/s");
      put(std::string(kLaneName[lane]) + ".latency_ms", geomean(per_job), "ms");
    }
    double products = 0.0, sim_s = 0.0;
    for (const Outcome& o : lanes_[0].first_timed->out) {
      products += static_cast<double>(o.stats.intermediate_products);
      sim_s += o.stats.sim_time_s;
    }
    put("sim_gflops", sim_s > 0 ? 2.0 * products / sim_s / 1e9 : 0.0, "GFLOP/s");
    put("setup_s", setup_s, "s");
    put("peak_rss_mib", usage_now().peak_rss_mib, "MiB");
  } else {
    layer_probes(m);
    double jobs = 0.0, hits = 0.0, reused = 0.0, allocs = 0.0, bytes = 0.0, faults = 0.0;
    std::vector<double> submit_us;
    double traced_s = 0.0, untraced_s = 0.0;
    for (int lane = 0; lane < kLanes; ++lane) {
      const LaneData& L = lanes_[lane];
      jobs += static_cast<double>(L.timed_jobs);
      hits += static_cast<double>(L.hits);
      reused += L.reused_bytes;
      allocs += static_cast<double>(L.heap.allocs);
      bytes += static_cast<double>(L.heap.bytes);
      faults += static_cast<double>(L.faults);
      for (const double s : L.submit_s) submit_us.push_back(s * 1e6);
      traced_s += median(L.traced_pass_s);
      untraced_s += median(L.untraced_pass_s);
      for (const char* st : acs::trace::kStageNames) {
        std::string key = std::string("core.") + st + "_ms." + kLaneName[lane];
        std::transform(key.begin(), key.end(), key.begin(),
                       [](unsigned char ch) { return static_cast<char>(std::tolower(ch)); });
        const auto it = L.stage_ms.find(st);
        put(key, it == L.stage_ms.end() ? 0.0 : median(it->second), "ms");
      }
    }
    put("serve.submit_us", w_.serve ? median(submit_us) : 0.0, "us");
    put("serve.degraded_jobs", static_cast<double>(degraded_), "count");
    put("runtime.plan_hit_rate", hits / jobs, "ratio");
    put("runtime.arena_reused_bytes_per_job", reused / jobs, "B/job");
    put("mem.heap_allocs_per_job", allocs / jobs, "count");
    put("mem.heap_bytes_per_job", bytes / jobs, "B/job");
    put("mem.minor_faults_per_job", faults / jobs, "count");
    put("trace.overhead_ratio", traced_s > 0 ? untraced_s / traced_s : 0.0, "ratio");

    const auto& sim_out = lanes_[0].first_timed->out;
    double counts[6] = {};
    double stage_s[acs::trace::kNumStages] = {};
    std::vector<double> mp;
    for (const Outcome& o : sim_out) {
      const auto& s = o.stats;
      counts[0] += static_cast<double>(s.intermediate_products);
      counts[1] += static_cast<double>(s.esc_iterations);
      counts[2] += static_cast<double>(s.chunks_created);
      counts[3] += static_cast<double>(s.long_row_chunks);
      counts[4] += static_cast<double>(s.merged_rows);
      counts[5] += static_cast<double>(s.restarts);
      for (std::size_t i = 0; i < acs::trace::kNumStages; ++i)
        stage_s[i] += s.stage_time(acs::trace::kStageNames[i]);
      mp.push_back(s.multiprocessor_load);
    }
    const char* count_names[6] = {"intermediate_products", "esc_iterations", "chunks_created",
                                  "long_row_chunks", "merged_rows", "restarts"};
    for (int i = 0; i < 6; ++i) put(std::string("core.") + count_names[i], counts[i], "count");
    for (std::size_t i = 0; i < acs::trace::kNumStages; ++i) {
      std::string key = std::string("sim.") + acs::trace::kStageNames[i] + "_s";
      std::transform(key.begin(), key.end(), key.begin(),
                     [](unsigned char ch) { return static_cast<char>(std::tolower(ch)); });
      put(key, stage_s[i], "s");
    }
    put("sim.mp_load", mean(mp), "ratio");
    put("host.calib_ms", 0.5 * (calib_start + calib_ms()), "ms");

    // Layer self times from the span log, and the spans themselves.
    std::cerr << "perfbench: span self times (s) over " << rounds << " rounds:\n";
    for (const auto& [name, s] : log_.self_seconds())
      std::cerr << "  " << name << " " << s << "\n";
    std::filesystem::create_directories(".bench_out");
    const std::string path = ".bench_out/trace-" + w_.name + "-seed" + std::to_string(seed_) + ".json";
    if (!log_.write_json(path)) std::cerr << "perfbench: could not write " << path << "\n";
  }
  if (!traced_) std::cerr << "perfbench: host calibration " << calib_start << " ms -> " << calib_ms() << " ms\n";
  std::cerr << "perfbench: " << rounds << " rounds, " << verify_s_ << " s checking\n";

  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct_ ? "true" : "false") << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool firstm = true;
  for (const auto& [k, v] : m) {
    os << (firstm ? "" : ", ") << "\"" << k << "\": {\"value\": " << v.first << ", \"unit\": \""
       << v.second << "\"}";
    firstm = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v) != 0;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    const pb::Args args = pb::parse(argc, argv);
    pb::Bench bench(pb::make_workload(args.workload, args.seed), args.seed, args.trace);
    return bench.run(args.seconds);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
