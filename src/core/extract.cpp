#include "core/extract.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

namespace rit::core {

namespace {

// Marks a slot whose user has no capacity left in ExtractedRuns::run_of_slot.
constexpr std::uint32_t kNoRun = ~std::uint32_t{0};

// The bucket of value v out of nb: floor(v * scale), the values at or
// above the top in the last one.
std::uint32_t bucket_of(double v, double scale, std::uint32_t nb) {
  return std::min(nb - 1, static_cast<std::uint32_t>(v * scale));
}

// Ascending (value, slot): equal values keep their user order.
struct ByValue {
  const double* value;
  bool operator()(std::uint32_t a, std::uint32_t c) const {
    return value[a] < value[c] || (value[a] == value[c] && a < c);
  }
};

// Whether two of `values` are equal, from a sorted copy (debug checks).
[[maybe_unused]] bool has_equal_values(std::span<const double> values) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

// Writes the slots [begin, end) of `value`, whose largest is `max`, to
// order[begin, end), grouped by bucket floor(value * 2n / max), n = end -
// begin, which is monotone in the value, with each bucket's slots
// ascending (a stable counting sort), and returns the scale. A bucket of
// more than two slots is sorted here; a pair is left for sort_through, and
// its first position is set in `pair_start`. With twice as many buckets
// as slots, a spread book leaves most buckets empty or single and few of
// more than two; ties and skew only make buckets bigger, up to one
// std::sort of the whole type. Then every tie is between neighbours in
// `order`, since equal values share a bucket, and `tied` is one pass over
// them. Values must be finite and > 0.
double scatter_by_value(std::span<const double> value, double max,
                        std::uint32_t begin, std::uint32_t end,
                        std::uint32_t* order, std::uint64_t* pair_start,
                        std::vector<std::uint32_t>& buckets, bool& tied) {
  tied = false;
  const std::uint32_t n = end - begin;
  if (n == 0) return 0.0;
  RIT_CHECK(n <= UINT32_MAX / 2);
  const std::uint32_t nb = 2 * n;
  // v * scale is at most about nb; a max so small that nb / max
  // overflows puts every slot in one bucket.
  const double scale = std::isfinite(nb / max) ? nb / max : 0.0;
  buckets.assign(nb + 1, 0);
  for (std::uint32_t i = begin; i < end; ++i) {
    ++buckets[bucket_of(value[i], scale, nb) + 1];
  }
  // The prefix sum turns the counts into bucket starts, and notes each
  // bucket of two at its start; one word's bits gather in `bits` until
  // the starts leave it. The empty buckets at the top start at `end`,
  // which can be one word past pair_start, but set no bit there.
  std::uint32_t start = begin;
  std::uint32_t word = begin >> 6;
  std::uint64_t bits = 0;
  buckets[0] = begin;
  for (std::uint32_t b = 1; b <= nb; ++b) {
    const std::uint32_t count = buckets[b];
    if (start >> 6 != word) {
      if (bits != 0) pair_start[word] |= bits;
      word = start >> 6;
      bits = 0;
    }
    bits |= std::uint64_t{count == 2} << (start & 63);
    start += count;
    buckets[b] = start;
  }
  if (bits != 0) pair_start[word] |= bits;
  for (std::uint32_t i = begin; i < end; ++i) {
    order[buckets[bucket_of(value[i], scale, nb)]++] = i;
  }
  // buckets[b] is now the end of bucket b, and the start of bucket b + 1.
  std::uint32_t first = begin;
  for (std::uint32_t b = 0; b < nb; ++b) {
    if (buckets[b] - first > 2) {
      std::sort(order + first, order + buckets[b], ByValue{value.data()});
    }
    first = buckets[b];
  }
  for (std::uint32_t k = begin + 1; k < end && !tied; ++k) {
    tied = value[order[k]] == value[order[k - 1]];
  }
  return scale;
}

}  // namespace

ExtractedAsks extract(TaskType type, std::span<const Ask> asks) {
  ExtractedAsks out;
  // Reserve pass keeps the expansion to one allocation per vector.
  std::size_t total = 0;
  for (const Ask& a : asks) total += a.type == type ? a.quantity : 0;
  out.values.reserve(total);
  out.owner.reserve(total);
  for (std::size_t j = 0; j < asks.size(); ++j) {
    if (asks[j].type != type) continue;
    out.values.insert(out.values.end(), asks[j].quantity, asks[j].value);
    out.owner.insert(out.owner.end(), asks[j].quantity,
                     static_cast<std::uint32_t>(j));
  }
  return out;
}

void AskTypeIndex::build(std::uint32_t types, std::span<const Ask> asks) {
  offsets.assign(types + 1, 0);
  user.resize(asks.size());
  value.resize(asks.size());
  quantity.resize(asks.size());
  // scale[t] holds the type's largest value until its scatter below.
  scale.assign(types, 0.0);
  for (const Ask& a : asks) {
    RIT_CHECK_MSG(a.type.value < types, "ask type " << a.type.value
                                                    << " outside job's "
                                                    << types << " types");
    offsets[a.type.value + 1] += 1;
    scale[a.type.value] = std::max(scale[a.type.value], a.value);
  }
  for (std::uint32_t t = 0; t < types; ++t) offsets[t + 1] += offsets[t];
  // Second pass places each ask at its group cursor; iterating j ascending
  // keeps every group sorted by user index, which is what makes indexed
  // expansion order-identical to the full scan.
  for (std::size_t j = 0; j < asks.size(); ++j) {
    const std::uint32_t slot = offsets[asks[j].type.value]++;
    user[slot] = static_cast<std::uint32_t>(j);
    value[slot] = asks[j].value;
    quantity[slot] = asks[j].quantity;
  }
  // The cursor walk advanced offsets[t] to offsets[t+1]; shift back.
  for (std::uint32_t t = types; t > 0; --t) offsets[t] = offsets[t - 1];
  offsets[0] = 0;
  by_value.resize(asks.size());
  pair_start.assign((asks.size() + 63) / 64, 0);
  sorted_end.assign(offsets.begin(), offsets.end() - 1);
  tied.resize(types);
  for (std::uint32_t t = 0; t < types; ++t) {
    bool t_tied = false;
    scale[t] = scatter_by_value(value, scale[t], offsets[t], offsets[t + 1],
                                by_value.data(), pair_start.data(), buckets,
                                t_tied);
    tied[t] = t_tied ? 1 : 0;
  }
}

std::uint32_t AskTypeIndex::sort_through(std::uint32_t t, double s) {
  RIT_CHECK(t < num_types());
  const std::uint32_t begin = offsets[t];
  const std::uint32_t end = offsets[t + 1];
  std::uint32_t* order = by_value.data();
  // Every unsorted entry is in a pair, and the buckets are in value order,
  // so one compare-and-swap per pair sorts the rest. The pairs come in
  // ascending value: the walk stops at the first whose smaller value is
  // above s, since every entry from there on is too.
  std::uint32_t k = sorted_end[t];
  if (k < end) {
    std::size_t w = k >> 6;
    std::uint64_t word = pair_start[w] & (~std::uint64_t{0} << (k & 63));
    const std::size_t words = (std::size_t{end} + 63) >> 6;
    k = end;
    for (;;) {
      while (word == 0 && ++w < words) word = pair_start[w];
      if (word == 0) break;
      const auto p = static_cast<std::uint32_t>(
          64 * w + static_cast<std::size_t>(std::countr_zero(word)));
      if (p >= end) break;  // the next type's pairs
      // The pair is in slot order, so only a strictly smaller second
      // value swaps it: equal values keep their user order.
      const std::uint32_t a = order[p];
      const std::uint32_t c = order[p + 1];
      const bool swap = value[c] < value[a];
      if ((swap ? value[c] : value[a]) > s) {
        k = p;
        break;
      }
      order[p] = swap ? c : a;
      order[p + 1] = swap ? a : c;
      word &= word - 1;
    }
    sorted_end[t] = k;
  }
  return static_cast<std::uint32_t>(
      std::partition_point(order + begin, order + k,
                           [&](std::uint32_t i) { return value[i] <= s; }) -
      order);
}

void extract_runs_into(TaskType type, AskTypeIndex& index,
                       std::span<const std::uint32_t> allocation,
                       ExtractedRuns& out) {
  RIT_CHECK(type.value < index.num_types());
  RIT_CHECK_MSG(allocation.size() == index.user.size(),
                "allocation of " << allocation.size() << " users for an index of "
                                 << index.user.size() << " asks");
  const std::uint32_t begin = index.offsets[type.value];
  const std::uint32_t end = index.offsets[type.value + 1];
  const std::uint32_t n = end - begin;
  const std::uint32_t* user = index.user.data() + begin;
  const std::uint32_t* quantity = index.quantity.data() + begin;
  const double* value = index.value.data() + begin;
  // Every slot is written at the cursor `live`, which only a user with
  // capacity left advances, so the exhausted users drop out without a
  // branch; their run_of_slot is live | (0 - 1), all ones (kNoRun).
  // Shrinking afterwards keeps the capacity, but the next call's resize
  // value-initializes the dropped tail again before the loop overwrites
  // it: n - live stores into runs and owner, about 3.5% of
  // BM_Extract/80000/1, where a quarter of the users are exhausted.
  out.runs.resize(n);
  out.owner.resize(n);
  out.run_of_slot.resize(n);
  AskRun* runs = out.runs.data();
  std::uint32_t* owner = out.owner.data();
  std::uint32_t* run_of_slot = out.run_of_slot.data();
  std::uint32_t live = 0;
  std::uint64_t start = 0;
  std::uint32_t max_len = 1;
  bool over = false;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t j = user[i];
    const std::uint32_t won = allocation[j];
    over |= won > quantity[i];
    const std::uint32_t k = quantity[i] - won;
    const std::uint32_t alive = k != 0 ? 1 : 0;
    runs[live] = AskRun{value[i], static_cast<std::uint32_t>(start), k};
    owner[live] = j;
    run_of_slot[i] = live | (alive - 1);
    live += alive;
    start += k;
    max_len = std::max(max_len, k);
  }
  if (over) {
    for (std::uint32_t i = 0; i < n; ++i) {
      RIT_CHECK_MSG(allocation[user[i]] <= quantity[i],
                    "allocation " << allocation[user[i]]
                                  << " exceeds asked quantity " << quantity[i]
                                  << " for user " << user[i]);
    }
  }
  RIT_CHECK_MSG(start <= UINT32_MAX,
                start << " unit asks of one type exceed the 2^32 index space");
  out.runs.resize(live);
  out.owner.resize(live);
  out.units = start;
  out.max_len = max_len;
  out.tied = index.tied[type.value] != 0;
  // Exact for the type: the flag equals a scan of its sorted values.
  RIT_DCHECK(out.tied == has_equal_values({value, n}));
  // by_value is gathered by order_through, at most one entry per slot.
  out.by_value.resize(n);
  out.ordered = 0;
  out.index = &index;
  out.type = type;
  out.slots_read = 0;
}

std::uint32_t ExtractedRuns::order_through(double s) {
  if (index != nullptr && slots_read < run_of_slot.size()) {
    // The type's value order, restricted to the live runs: each slot maps
    // to its run, and the exhausted ones are written past the cursor and
    // dropped.
    RIT_CHECK_MSG(type.value < index->num_types() &&
                      index->offsets[type.value + 1] -
                              index->offsets[type.value] ==
                          run_of_slot.size(),
                  "the index was rebuilt after this book was extracted");
    const std::uint32_t begin = index->offsets[type.value];
    const std::uint32_t stop = index->sort_through(type.value, s) - begin;
    const std::uint32_t* order = index->by_value.data() + begin;
    std::uint32_t* out = by_value.data();
    std::uint32_t next = ordered;
    for (std::uint32_t i = slots_read; i < stop; ++i) {
      const std::uint32_t run = run_of_slot[order[i] - begin];
      out[next] = run;
      next += run != kNoRun ? 1 : 0;
    }
    ordered = next;
    slots_read = std::max(slots_read, stop);
  }
  return static_cast<std::uint32_t>(
      std::partition_point(by_value.begin(), by_value.begin() + ordered,
                           [&](std::uint32_t r) { return runs[r].value <= s; }) -
      by_value.begin());
}

void complete_book(ExtractedRuns& book) {
  RIT_CHECK_MSG(book.by_value.size() == book.runs.size(),
                "value order of " << book.by_value.size() << " for "
                                  << book.runs.size() << " runs");
  std::uint64_t units = 0;
  std::uint32_t max_len = 1;
  for (const AskRun& run : book.runs) {
    RIT_CHECK(run.len > 0 && run.start == units);
    units += run.len;
    max_len = std::max(max_len, run.len);
  }
  const auto value_of = [&](std::uint32_t r) { return book.runs[r].value; };
  bool tied = false;
  for (std::size_t k = 1; k < book.by_value.size(); ++k) {
    const std::uint32_t a = book.by_value[k - 1];
    const std::uint32_t c = book.by_value[k];
    RIT_DCHECK(value_of(a) < value_of(c) ||
               (value_of(a) == value_of(c) && a < c));
    tied |= value_of(a) == value_of(c);
  }
  book.units = units;
  book.max_len = max_len;
  book.tied = tied;
  book.ordered = static_cast<std::uint32_t>(book.by_value.size());
  book.index = nullptr;
  book.slots_read = 0;
}

}  // namespace rit::core
