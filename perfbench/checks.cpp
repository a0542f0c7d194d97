/// \file checks.cpp
/// Correctness checks of the benchmark, written apart from the library so a
/// fault in the library cannot hide in its own reference: a dense-
/// accumulator Gustavson SpGEMM, a seeded probe C·x = A·(B·x), the exact
/// intermediate-product count, the Galerkin sum/symmetry identities and
/// bit-identity against the first verified result.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace pb {
namespace {

std::size_t at(acs::index_t i) { return static_cast<std::size_t>(i); }

/// y = M·x and y_abs = |M|·|x|.
void spmv(const Mat& m, const std::vector<double>& x,
          const std::vector<double>& x_abs, std::vector<double>& y,
          std::vector<double>& y_abs) {
  y.assign(at(m.rows), 0.0);
  y_abs.assign(at(m.rows), 0.0);
  for (acs::index_t r = 0; r < m.rows; ++r) {
    double s = 0.0, s_abs = 0.0;
    for (acs::index_t k = m.row_ptr[at(r)]; k < m.row_ptr[at(r) + 1]; ++k) {
      const std::size_t col = at(m.col_idx[at(k)]);
      s += m.values[at(k)] * x[col];
      s_abs += std::fabs(m.values[at(k)]) * x_abs[col];
    }
    y[at(r)] = s;
    y_abs[at(r)] = s_abs;
  }
}

bool within(double got, double want, double scale) {
  return std::fabs(got - want) <= kRelTol * scale;
}

bool is_symmetric(const Mat& m, double tol_scale) {
  if (m.rows != m.cols) return false;
  for (acs::index_t r = 0; r < m.rows; ++r) {
    for (acs::index_t k = m.row_ptr[at(r)]; k < m.row_ptr[at(r) + 1]; ++k) {
      const acs::index_t c = m.col_idx[at(k)];
      const auto first = m.col_idx.begin() + m.row_ptr[at(c)];
      const auto last = m.col_idx.begin() + m.row_ptr[at(c) + 1];
      const auto it = std::lower_bound(first, last, r);
      if (it == last || *it != r) return false;
      const double other = m.values[at(static_cast<acs::index_t>(
          it - m.col_idx.begin()))];
      if (!within(m.values[at(k)], other,
                  tol_scale * std::max(1.0, std::fabs(other))))
        return false;
    }
  }
  return true;
}

}  // namespace

Reference make_reference(const Mat& a, const Mat& b, std::uint64_t seed) {
  Reference r;
  Mat& c = r.c;
  c.rows = a.rows;
  c.cols = b.cols;
  c.row_ptr.assign(at(a.rows) + 1, 0);
  std::vector<double> acc(at(b.cols), 0.0), acc_abs(at(b.cols), 0.0);
  std::vector<char> seen(at(b.cols), 0);
  std::vector<acs::index_t> cols;
  for (acs::index_t i = 0; i < a.rows; ++i) {
    cols.clear();
    for (acs::index_t ka = a.row_ptr[at(i)]; ka < a.row_ptr[at(i) + 1]; ++ka) {
      const acs::index_t k = a.col_idx[at(ka)];
      const double av = a.values[at(ka)];
      r.products += b.row_ptr[at(k) + 1] - b.row_ptr[at(k)];
      for (acs::index_t kb = b.row_ptr[at(k)]; kb < b.row_ptr[at(k) + 1];
           ++kb) {
        const std::size_t j = at(b.col_idx[at(kb)]);
        if (!seen[j]) {
          seen[j] = 1;
          cols.push_back(static_cast<acs::index_t>(j));
        }
        acc[j] += av * b.values[at(kb)];
        acc_abs[j] += std::fabs(av * b.values[at(kb)]);
      }
    }
    std::sort(cols.begin(), cols.end());
    for (const acs::index_t j : cols) {
      c.col_idx.push_back(j);
      c.values.push_back(acc[at(j)]);
      r.c_abs.push_back(acc_abs[at(j)]);
      acc[at(j)] = acc_abs[at(j)] = 0.0;
      seen[at(j)] = 0;
    }
    c.row_ptr[at(i) + 1] = static_cast<acs::index_t>(c.col_idx.size());
  }

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  r.x.resize(at(b.cols));
  for (double& v : r.x) v = dist(rng);
  std::vector<double> x_abs(r.x.size()), bx, bx_abs;
  std::transform(r.x.begin(), r.x.end(), x_abs.begin(),
                 [](double v) { return std::fabs(v); });
  spmv(b, r.x, x_abs, bx, bx_abs);
  spmv(a, bx, bx_abs, r.y, r.y_abs);
  return r;
}

void set_galerkin_fine(Reference& ref, const Mat& fine) {
  ref.sum_a = ref.abs_sum_a = 0.0;
  for (const double v : fine.values) {
    ref.sum_a += v;
    ref.abs_sum_a += std::fabs(v);
  }
  ref.symmetric_a = is_symmetric(fine, 64.0);
}

std::string check_reference(const Mat& c, const Reference& r) {
  if (c.rows != r.c.rows || c.cols != r.c.cols) return "reference: shape";
  if (c.row_ptr != r.c.row_ptr) return "reference: row pointers differ";
  if (c.col_idx != r.c.col_idx) return "reference: column ids differ";
  for (std::size_t k = 0; k < c.values.size(); ++k) {
    if (!within(c.values[k], r.c.values[k], std::max(r.c_abs[k], 1e-300))) {
      std::ostringstream os;
      os << "reference: value " << k << " is " << c.values[k] << ", want "
         << r.c.values[k];
      return os.str();
    }
  }
  return {};
}

std::string check_probe(const Mat& c, const Reference& r, double scale) {
  if (at(c.cols) != r.x.size() || at(c.rows) != r.y.size())
    return "probe: shape";
  std::vector<double> x_abs(r.x.size()), y, y_abs;
  std::transform(r.x.begin(), r.x.end(), x_abs.begin(),
                 [](double v) { return std::fabs(v); });
  spmv(c, r.x, x_abs, y, y_abs);
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (!within(y[i], scale * r.y[i], scale * std::max(r.y_abs[i], 1e-300))) {
      std::ostringstream os;
      os << "probe: (C·x)[" << i << "] = " << y[i] << ", A·(B·x) gives "
         << scale * r.y[i];
      return os.str();
    }
  }
  return {};
}

std::string check_products(std::int64_t measured, const Reference& r) {
  if (measured == r.products) return {};
  std::ostringstream os;
  os << "products: stats report " << measured << ", counted " << r.products;
  return os.str();
}

std::string check_galerkin(const Mat& c, const Reference& r, double scale) {
  double sum = 0.0;
  for (const double v : c.values) sum += v;
  if (!within(sum, scale * r.sum_a, scale * r.abs_sum_a * 64.0)) {
    std::ostringstream os;
    os << "galerkin: sum(PᵀAP) = " << sum << ", sum(A) = " << scale * r.sum_a;
    return os.str();
  }
  if (r.symmetric_a && !is_symmetric(c, 64.0)) return "galerkin: PᵀAP is not symmetric";
  return {};
}

bool equals_scaled(const Mat& c, const Mat& first, double scale) {
  if (scale == 1.0) return c.equals_exact(first);
  if (c.rows != first.rows || c.cols != first.cols ||
      c.row_ptr != first.row_ptr || c.col_idx != first.col_idx ||
      c.values.size() != first.values.size())
    return false;
  for (std::size_t k = 0; k < c.values.size(); ++k)
    if (c.values[k] != first.values[k] * scale) return false;
  return true;
}

std::vector<std::string> self_test(const Mat& c, const Reference& r,
                                   bool galerkin) {
  std::vector<std::string> missed;
  if (c.values.empty()) return {"self-test: empty result"};
  // Corrupt the largest entry so the change is far outside any tolerance.
  std::size_t k = 0;
  for (std::size_t i = 0; i < c.values.size(); ++i)
    if (std::fabs(c.values[i]) > std::fabs(c.values[k])) k = i;

  Mat changed = c;
  changed.values[k] = changed.values[k] * 1.5 + 1.0;

  Mat dropped = c;
  dropped.col_idx.erase(dropped.col_idx.begin() + static_cast<long>(k));
  dropped.values.erase(dropped.values.begin() + static_cast<long>(k));
  for (std::size_t row = 0; row < at(dropped.rows); ++row)
    if (at(dropped.row_ptr[row + 1]) > k) --dropped.row_ptr[row + 1];

  for (const auto& [label, bad] :
       {std::pair<const char*, const Mat*>{"changed value", &changed},
        {"dropped entry", &dropped}}) {
    const std::string tag = std::string(" missed a ") + label;
    if (check_reference(*bad, r).empty()) missed.push_back("reference" + tag);
    if (check_probe(*bad, r, 1.0).empty()) missed.push_back("probe" + tag);
    if (equals_scaled(*bad, c, 1.0)) missed.push_back("bit-identity" + tag);
    if (galerkin && check_galerkin(*bad, r, 1.0).empty())
      missed.push_back("galerkin" + tag);
  }
  if (check_products(r.products + 1, r).empty())
    missed.push_back("products missed a wrong count");
  return missed;
}

}  // namespace pb
