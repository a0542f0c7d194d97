#include "core/esc_block.hpp"

#include <algorithm>
#include <cassert>

#include "core/compaction.hpp"
#include "core/sort_key.hpp"
#include "core/work_distribution.hpp"
#include "sim/block_primitives.hpp"
#include "trace/trace.hpp"

namespace acs {
namespace {

/// Build a chunk from a prefix of the compaction output.
/// Rows [0, row_count) of `out` with their entries are materialized;
/// `a_row` maps local row ids to global rows.
template <class T>
Chunk<T> build_chunk(const CompactionOutput<T>& out, std::size_t row_count,
                     const KeyCodec& codec, std::span<const index_t> a_row,
                     ChunkOrder order) {
  Chunk<T> chunk;
  chunk.order = order;
  chunk.rows.reserve(row_count);
  chunk.row_offsets.reserve(row_count + 1);
  chunk.row_offsets.push_back(0);
  index_t entries = 0;
  for (std::size_t i = 0; i < row_count; ++i) {
    chunk.rows.push_back(a_row[static_cast<std::size_t>(out.rows[i].first)]);
    entries += out.rows[i].second;
    chunk.row_offsets.push_back(entries);
  }
  chunk.cols.resize(usize(entries));
  for (index_t e = 0; e < entries; ++e)
    chunk.cols[usize(e)] = codec.col_of(out.keys[usize(e)]);
  chunk.vals.assign(out.vals.begin(),
                    out.vals.begin() + static_cast<std::ptrdiff_t>(entries));
  return chunk;
}

/// Per-thread buffers of the ESC block routine. One thread_local instance
/// per scheduler thread is reused across blocks and multiplications, so the
/// steady state allocates nothing but the chunks it writes.
template <class T>
struct EscWorkspace {
  std::vector<index_t> a_row;
  std::vector<index_t> local_row;
  std::vector<offset_t> counts;
  std::vector<index_t> long_entries;
  std::vector<std::uint64_t> keys;
  std::vector<T> vals;
  std::vector<index_t> car_col;
  std::vector<T> car_val;
  sim::RadixSortScratch<std::uint64_t, T> sort;
  CompactionOutput<T> compaction;

  static EscWorkspace& instance() {
    thread_local EscWorkspace ws;
    return ws;
  }
};

}  // namespace

/// The ESC block algorithm (Sections 3.2, 3.4). Every counter is charged in
/// closed form from sizes the loop already knows, so pricing with the cost
/// model (or not) is the caller's choice and never changes what runs here.
template <class T>
EscBlockResult<T> run_esc_block(const Csr<T>& a, const Csr<T>& b,
                                std::span<const index_t> block_row_starts,
                                std::size_t block_id, const Config& cfg,
                                ChunkPool& pool, BlockState& state) {
  EscBlockResult<T> res;
  sim::MetricCounters& m = res.metrics;

  const offset_t begin =
      static_cast<offset_t>(block_id) * cfg.nnz_per_block;
  const offset_t end = std::min<offset_t>(a.nnz(), begin + cfg.nnz_per_block);
  const auto entries = static_cast<index_t>(end - begin);
  if (entries <= 0) {
    state.finished = true;
    return res;
  }

  EscWorkspace<T>& ws = EscWorkspace<T>::instance();

  // --- Fetch A (Section 3.2.1): coalesced load of the block's non-zeros,
  // column ids and (via the row pointer) row ids.
  std::vector<index_t>& a_row = ws.a_row;
  a_row.resize(static_cast<std::size_t>(entries));
  {
    index_t row = block_row_starts[block_id];
    for (index_t i = 0; i < entries; ++i) {
      const offset_t o = begin + i;
      while (a.row_ptr[static_cast<std::size_t>(row) + 1] <= o) ++row;
      a_row[static_cast<std::size_t>(i)] = row;
    }
    const index_t rows_in_block = a_row.back() - a_row.front() + 1;
    m.global_bytes_coalesced +=
        static_cast<std::uint64_t>(entries) * (sizeof(index_t) + sizeof(T)) +
        static_cast<std::uint64_t>(rows_in_block + 1) * sizeof(index_t);
  }

  // Row dictionary: local row id = index of the row's first non-zero in the
  // block (Section 3.2.1's bit-length reduction).
  std::vector<index_t>& local_row = ws.local_row;
  local_row.resize(static_cast<std::size_t>(entries));
  for (index_t i = 0; i < entries; ++i) {
    local_row[static_cast<std::size_t>(i)] =
        (i > 0 && a_row[static_cast<std::size_t>(i)] ==
                      a_row[static_cast<std::size_t>(i - 1)])
            ? local_row[static_cast<std::size_t>(i - 1)]
            : i;
  }

  // --- B row lengths (inspected "with little additional cost" while loading
  // each column index of A) and long-row detection (Section 3.4).
  const index_t long_threshold = cfg.effective_long_row_threshold();
  std::vector<offset_t>& counts = ws.counts;
  counts.resize(static_cast<std::size_t>(entries));
  std::vector<index_t>& long_entries = ws.long_entries;
  long_entries.clear();
  for (index_t i = 0; i < entries; ++i) {
    const index_t acol = a.col_idx[static_cast<std::size_t>(begin + i)];
    const index_t blen = b.row_length(acol);
    if (cfg.long_row_handling && blen >= long_threshold) {
      counts[static_cast<std::size_t>(i)] = 0;
      long_entries.push_back(i);
    } else {
      counts[static_cast<std::size_t>(i)] = blen;
    }
  }
  // Row-pointer pair lookup per entry: column-local inputs keep one of the
  // two reads in cache; the other misses.
  m.global_bytes_scattered +=
      static_cast<std::uint64_t>(entries) * sizeof(index_t);
  m.global_bytes_coalesced +=
      static_cast<std::uint64_t>(entries) * sizeof(index_t);

  // Long-row pointer chunks, created idempotently across restarts.
  for (index_t j = state.long_rows_done;
       j < static_cast<index_t>(long_entries.size()); ++j) {
    const index_t i = long_entries[static_cast<std::size_t>(j)];
    const index_t acol = a.col_idx[static_cast<std::size_t>(begin + i)];
    Chunk<T> chunk;
    chunk.is_long_row = true;
    chunk.rows = {a_row[static_cast<std::size_t>(i)]};
    chunk.b_row = acol;
    chunk.factor = a.values[static_cast<std::size_t>(begin + i)];
    chunk.long_len = b.row_length(acol);
    chunk.order = {static_cast<std::uint32_t>(block_id), state.chunk_counter};
    if (!pool.try_allocate(chunk.byte_size())) {
      res.needs_restart = true;
      return res;
    }
    charge_chunk_write(m, chunk);
    ACS_TRACE_COUNT(cfg.trace, pool_alloc_bytes, chunk.byte_size());
    ACS_TRACE_COUNT(cfg.trace, chunks_written, 1);
    ACS_TRACE_COUNT(cfg.trace, long_row_chunks, 1);
    res.chunks.push_back(std::move(chunk));
    ++state.chunk_counter;
    state.long_rows_done = j + 1;
  }

  // --- Local work distribution (Algorithm 2).
  WorkDistribution wd(counts, m);
  if (state.committed > 0) wd.fast_forward(state.committed, m);

  const index_t capacity = static_cast<index_t>(cfg.temp_capacity());
  const index_t retain_cap = static_cast<index_t>(cfg.retain_capacity());

  // Carried partial row between iterations (decoded form; re-encoded with
  // each iteration's codec).
  index_t carried_local_row = -1;
  std::vector<index_t>& car_col = ws.car_col;
  std::vector<T>& car_val = ws.car_val;
  car_col.clear();
  car_val.clear();
  offset_t carried_sources = 0;

  std::vector<std::uint64_t>& keys = ws.keys;
  std::vector<T>& vals = ws.vals;

  // Static column width of the fused encoding (see below).
  const int static_col_bits =
      sim::bits_for(static_cast<std::uint64_t>(b.cols - 1));

  // Block-level spans only in detail mode (a span per local ESC iteration
  // is far too hot for always-on tracing; see DESIGN.md §7).
  trace::TraceSession* detail_trace =
      cfg.trace && cfg.trace->detail() ? cfg.trace : nullptr;

  while (wd.size() > 0) {
    ACS_TRACE_SCOPE(detail_trace, "esc.iteration");
    ++res.iterations;
    const auto carried = static_cast<index_t>(car_col.size());
    const offset_t consume =
        std::min<offset_t>(wd.size(), capacity - carried);
    const std::size_t n =
        static_cast<std::size_t>(carried) + static_cast<std::size_t>(consume);

    // --- Fused receive + expand + encode: each drawn product is touched
    // exactly once. A segment visit hands over one B-row run per A entry,
    // so the A-side loads (value, local row, B row base) hoist out of the
    // per-product loop and the inner loop streams one row of B. The key row
    // base is known before the sweep (the carried row or the first pending
    // A entry, whichever is lower — drawn local rows are non-decreasing
    // because consumption sweeps the block's A entries in order) and the
    // column width is static, so keys encode final-form in the same pass.
    keys.resize(n);
    vals.resize(n);
    const index_t first_lrow =
        local_row[static_cast<std::size_t>(wd.first_pending())];
    const index_t row_lo =
        carried > 0 ? std::min(carried_local_row, first_lrow) : first_lrow;
    std::size_t w = static_cast<std::size_t>(carried);
    index_t last_lrow_drawn = carried > 0 ? carried_local_row : first_lrow;
    // Drawn products feeding the buffer's last row (never the carried
    // elements: those are not sources themselves).
    offset_t last_row_drawn = 0;
    std::uint64_t segments = 0;
    wd.receive_visit_segments(consume, m, [&](index_t a_idx, index_t b_lo,
                                              index_t b_hi) {
      const std::size_t ai = static_cast<std::size_t>(begin + a_idx);
      const index_t lrow = local_row[static_cast<std::size_t>(a_idx)];
      if (lrow != last_lrow_drawn) {
        last_lrow_drawn = lrow;
        last_row_drawn = 0;
      }
      last_row_drawn += b_hi - b_lo;
      ++segments;
      const std::uint64_t krow =
          static_cast<std::uint64_t>(lrow - row_lo) << static_col_bits;
      const T aval = a.values[ai];
      const std::size_t base =
          static_cast<std::size_t>(b.row_ptr[usize(a.col_idx[ai])]);
      const index_t* bcol = b.col_idx.data() + base;
      const T* bval = b.values.data() + base;
      for (index_t off = b_hi; off-- > b_lo;) {
        keys[w] = krow | static_cast<std::uint64_t>(bcol[off]);
        vals[w] = aval * bval[off];
        ++w;
      }
    });
    // Expansion: coalesced loads of the drawn B elements, one extra memory
    // transaction per B-row segment, one multiply-add per product.
    m.global_bytes_coalesced +=
        static_cast<std::uint64_t>(consume) * (sizeof(index_t) + sizeof(T));
    m.global_bytes_scattered += 32 * segments;
    m.flops += 2 * static_cast<std::uint64_t>(consume);

    const index_t row_hi = std::max(
        last_lrow_drawn, carried > 0 ? carried_local_row : last_lrow_drawn);
    const KeyCodec codec = KeyCodec::make(
        row_lo, row_hi, 0, b.cols - 1, true,
        static_cast<index_t>(cfg.nnz_per_block - 1), b.cols - 1);
    // Carried elements first (stable sort keeps them ahead of new products
    // with equal keys, preserving prefix-sum accumulation).
    for (index_t i = 0; i < carried; ++i) {
      keys[static_cast<std::size_t>(i)] = codec.encode(
          carried_local_row, car_col[static_cast<std::size_t>(i)]);
      vals[static_cast<std::size_t>(i)] = car_val[static_cast<std::size_t>(i)];
    }

    // --- Sort (block radix sort). The host sort runs over the fused
    // encoding's bits; the decoded (row, column) order — all that
    // downstream consumes — is the same under any encoding.
    sim::block_radix_sort(std::span(keys), std::span(vals),
                          codec.total_bits(), ws.sort);

    // --- Compress (Algorithm 3).
    compact_sorted_into(std::span<const std::uint64_t>(keys),
                        std::span<const T>(vals), codec, ws.compaction);
    charge_compaction(m, n);
    const CompactionOutput<T>& out = ws.compaction;
    assert(!out.rows.empty());

    // The sort is charged for the bits the paper's kernel sorts: the
    // dynamic-bits codec over the buffer's row and column range
    // (Section 3.2.3). Compacted rows are column-sorted and hold every
    // distinct (row, column) of the buffer, so each row's first and last
    // entries bound the column range — no per-product tracking needed.
    index_t min_col = b.cols, max_col = 0;
    std::size_t pos = 0;
    for (const auto& [lrow, count] : out.rows) {
      min_col = std::min(min_col, codec.col_of(out.keys[pos]));
      pos += static_cast<std::size_t>(count);
      max_col = std::max(max_col, codec.col_of(out.keys[pos - 1]));
    }
    const KeyCodec priced = KeyCodec::make(
        row_lo, row_hi, min_col, max_col, cfg.dynamic_bits,
        static_cast<index_t>(cfg.nnz_per_block - 1), b.cols - 1);
    m.sort_pass_elements += sim::radix_sort_work(n, priced.total_bits());

    // Sources feeding the (new) last row this round: the products drawn for
    // it plus, if the carried row is still open, its accumulated sources.
    const index_t last_lrow = out.rows.back().first;
    offset_t last_row_sources = last_row_drawn;
    if (carried > 0 && carried_local_row == last_lrow)
      last_row_sources += carried_sources;

    const bool more = wd.size() > 0;
    const index_t last_count = out.rows.back().second;
    const bool carry_last =
        more && retain_cap > 0 && last_count <= retain_cap;

    const std::size_t write_rows =
        carry_last ? out.rows.size() - 1 : out.rows.size();

    if (write_rows > 0) {
      Chunk<T> chunk = build_chunk(out, write_rows, codec,
                                   std::span<const index_t>(a_row),
                                   {static_cast<std::uint32_t>(block_id),
                                    state.chunk_counter});
      if (!pool.try_allocate(chunk.byte_size())) {
        res.needs_restart = true;
        return res;  // committed unchanged: replay redoes this iteration
      }
      charge_chunk_write(m, chunk);
      ACS_TRACE_COUNT(cfg.trace, pool_alloc_bytes, chunk.byte_size());
      ACS_TRACE_COUNT(cfg.trace, chunks_written, 1);
      res.chunks.push_back(std::move(chunk));
      ++state.chunk_counter;
      // Restart invariant (DESIGN.md §8): `committed` counts exactly the
      // work-distribution sources whose products are fully represented in
      // written chunks. A carried (retained) last row is NOT committed —
      // its sources replay after a restart and the replayed products
      // re-produce the carried partial row bit-identically. This is the
      // only place `committed` advances; it moves monotonically and only
      // after the chunk covering the work is safely in the pool.
      state.committed =
          wd.consumed() - (carry_last ? last_row_sources : 0);
    }

    if (carry_last) {
      carried_local_row = last_lrow;
      const std::size_t first =
          out.keys.size() - static_cast<std::size_t>(last_count);
      car_col.assign(static_cast<std::size_t>(last_count), 0);
      car_val.assign(static_cast<std::size_t>(last_count), T{});
      for (index_t i = 0; i < last_count; ++i) {
        car_col[static_cast<std::size_t>(i)] =
            codec.col_of(out.keys[first + static_cast<std::size_t>(i)]);
        car_val[static_cast<std::size_t>(i)] =
            out.vals[first + static_cast<std::size_t>(i)];
      }
      carried_sources = last_row_sources;
    } else {
      // With no carry, last_row_sources was not subtracted above, so
      // `committed` already equals wd.consumed() — no second assignment.
      carried_local_row = -1;
      car_col.clear();
      car_val.clear();
      carried_sources = 0;
    }
  }

  state.finished = true;
  return res;
}

template EscBlockResult<float> run_esc_block(const Csr<float>&,
                                             const Csr<float>&,
                                             std::span<const index_t>,
                                             std::size_t, const Config&,
                                             ChunkPool&, BlockState&);
template EscBlockResult<double> run_esc_block(const Csr<double>&,
                                              const Csr<double>&,
                                              std::span<const index_t>,
                                              std::size_t, const Config&,
                                              ChunkPool&, BlockState&);

}  // namespace acs
