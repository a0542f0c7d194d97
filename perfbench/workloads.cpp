/// \file workloads.cpp
/// Inputs of the three workloads, all drawn from `--seed`. The sizes are
/// fixed so every seed does the same amount of work within a few percent;
/// the seed moves the random structure and the values.

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "matrix/coo.hpp"
#include "matrix/generators.hpp"
#include "matrix/transpose.hpp"
#include "suite/suite.hpp"

namespace pb {
namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// paper_suite: the 16 Table 2 analogues, A·A (A·Aᵀ when not square), in
/// double precision with the paper's parameters and tuning off.
Workload paper_suite(std::uint64_t seed) {
  Workload w;
  w.name = "paper_suite";
  const auto& suite = acs::showcase_suite();
  std::vector<int> all;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    acs::SuiteEntry e = suite[i];
    e.spec.seed = mix(seed, i);
    Job j;
    j.name = e.name;
    j.a = acs::build_matrix<double>(e);
    j.b = e.square ? j.a : acs::transpose(j.a);
    w.jobs.push_back(std::move(j));
    all.push_back(static_cast<int>(i));
  }
  w.waves.push_back(all);
  return w;
}

/// Unsmoothed aggregation: `aggregate` consecutive unknowns form one coarse
/// unknown, so P has exactly one unit entry per row.
Mat aggregation(acs::index_t fine, acs::index_t aggregate) {
  acs::Coo<double> p;
  p.rows = fine;
  p.cols = (fine + aggregate - 1) / aggregate;
  for (acs::index_t i = 0; i < fine; ++i) p.push(i, i / aggregate, 1.0);
  return p.to_csr();
}

/// Independent members of the amg_serve ensemble set up per time step.
constexpr int kAmgMembers = 4;

/// amg_serve: Galerkin setup A_{l+1} = Pᵀ·(A_l·P) of a 2D and a 3D Poisson
/// hierarchy, one tenant each, redone every time step for each of
/// kAmgMembers ensemble members (the same operators, member m's values
/// scaled by 2^m). One worker per lane drains a queue that holds every
/// member's product of a level at once.
Workload amg_serve(std::uint64_t seed) {
  Workload w;
  w.name = "amg_serve";
  w.serve = true;
  w.workers = 1;
  struct Problem {
    const char* name;
    Mat a0;
    acs::index_t aggregate;
  };
  // The seed moves the 2D grid's width by up to two columns, so simulated
  // figures differ from seed to seed while the work stays within ~1%.
  const auto nx = static_cast<acs::index_t>(158 + mix(seed, 0) % 5);
  const Problem problems[] = {
      {"poisson2d", acs::gen_stencil_2d<double>(nx, 160, mix(seed, 1)), 4},
      {"poisson3d", acs::gen_stencil_3d<double>(28, 28, 28, mix(seed, 2)), 8},
  };
  std::vector<std::vector<int>> chains;
  for (int k = 0; k < 2 * kAmgMembers; ++k) {
    const int m = k / 2;
    const int c = k % 2;
    const Problem& pr = problems[c];
    const std::string prefix = std::string(pr.name) + ".m" + std::to_string(m);
    std::vector<int> chain;
    acs::index_t rows = pr.a0.rows;
    for (int level = 0; rows > 32; ++level) {
      const Mat p = aggregation(rows, pr.aggregate);
      Job ap;
      ap.name = prefix + ".L" + std::to_string(level) + ".AP";
      ap.chain = c;
      ap.b = p;
      if (level == 0) {
        ap.a = pr.a0;
        for (double& v : ap.a.values) v = std::ldexp(v, m);
        ap.scaled_input = true;
      } else {
        ap.a_from = chain.back();
      }
      const int ap_index = static_cast<int>(w.jobs.size());
      w.jobs.push_back(std::move(ap));
      chain.push_back(ap_index);

      Job rap;
      rap.name = prefix + ".L" + std::to_string(level) + ".PtAP";
      rap.chain = c;
      rap.a = acs::transpose(p);
      rap.b_from = ap_index;
      rap.galerkin = true;
      rap.sum_of = ap_index;
      chain.push_back(static_cast<int>(w.jobs.size()));
      w.jobs.push_back(std::move(rap));
      rows = p.cols;
    }
    chains.push_back(chain);
  }
  for (std::size_t k = 0;; ++k) {
    std::vector<int> wave;
    for (const auto& chain : chains)
      if (k < chain.size()) wave.push_back(chain[k]);
    if (wave.empty()) break;
    w.waves.push_back(wave);
  }
  return w;
}

/// cold_stream: 24 one-off structures of four kinds, first seen by every
/// engine, sized by the sampled estimator from a 64 KiB floor.
Workload cold_stream(std::uint64_t seed) {
  Workload w;
  w.name = "cold_stream";
  w.fresh_engines = true;
  std::vector<int> all;
  for (int i = 0; i < 24; ++i) {
    const std::uint64_t s = mix(seed, 100 + static_cast<std::uint64_t>(i));
    const acs::index_t n = 1500 + 250 * (i / 4);
    Job j;
    switch (i % 4) {
      case 0:
        j.name = "powerlaw";
        j.a = acs::gen_powerlaw<double>(n, n, 6.0, 1.9, 300, s);
        break;
      case 1:
        j.name = "local-uniform";
        j.a = acs::gen_uniform_local<double>(n, n, 12.0, 3.0, 512, s);
        break;
      case 2:
        j.name = "block-dense";
        j.a = acs::gen_block_dense<double>(n / 4, n / 4, 24, 2, s);
        break;
      default:
        j.name = "uniform";
        j.a = acs::gen_uniform_random<double>(n, n, 8.0, 2.0, s);
        break;
    }
    j.name += '.';
    j.name += std::to_string(i);
    j.b = j.a;
    j.cfg.pool_sizing = acs::PoolSizing::kSampled;
    j.cfg.pool_lower_bound_bytes = std::size_t{64} << 10;
    all.push_back(i);
    w.jobs.push_back(std::move(j));
  }
  w.waves.push_back(all);
  return w;
}

}  // namespace

double Workload::scale(std::size_t step) const {
  if (!serve) return 1.0;
  return std::ldexp(1.0, static_cast<int>(step % 5) - 2);
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper_suite") return paper_suite(seed);
  if (name == "amg_serve") return amg_serve(seed);
  if (name == "cold_stream") return cold_stream(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace pb
