#include "core/extract.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace rit::core {

namespace {

// Marks a slot whose user has no capacity left in ExtractedRuns::run_of_slot.
constexpr std::uint32_t kNoRun = ~std::uint32_t{0};

// Writes the slots [begin, end) of `value` to out[0, n), n = end - begin,
// in ascending (value, slot) order. A stable counting sort on the bucket
// floor(value * 2n / max), which is monotone in the value, leaves each
// bucket's slots ascending; std::sort then orders each bucket of more than
// one slot. With twice as many buckets as slots, a spread book leaves
// most buckets empty or single, so this is about linear, with few
// std::sort calls (BM_TypeIndexBuild times it); ties and skew only make
// buckets bigger, up to one std::sort of the whole type. Values must be
// finite and > 0.
void sort_by_value(std::span<const double> value, std::uint32_t begin,
                   std::uint32_t end, std::uint32_t* out,
                   std::vector<std::uint32_t>& buckets) {
  const std::uint32_t n = end - begin;
  if (n == 0) return;
  RIT_CHECK(n <= UINT32_MAX / 2);
  const double max =
      *std::max_element(value.begin() + begin, value.begin() + end);
  const std::uint32_t nb = 2 * n;
  // v * scale is at most about nb; a max so small that nb / max
  // overflows puts every slot in one bucket.
  const double scale = std::isfinite(nb / max) ? nb / max : 0.0;
  const auto bucket_of = [&](std::uint32_t i) {
    return std::min(nb - 1, static_cast<std::uint32_t>(value[i] * scale));
  };
  buckets.assign(nb + 1, 0);
  for (std::uint32_t i = begin; i < end; ++i) ++buckets[bucket_of(i) + 1];
  std::partial_sum(buckets.begin(), buckets.end(), buckets.begin());
  for (std::uint32_t i = begin; i < end; ++i) out[buckets[bucket_of(i)]++] = i;
  // buckets[b] is now the end of bucket b, and the start of bucket b + 1.
  std::uint32_t first = 0;
  for (std::uint32_t b = 0; b < nb; ++b) {
    if (buckets[b] - first > 1) {
      std::sort(out + first, out + buckets[b],
                [&](std::uint32_t a, std::uint32_t c) {
                  return value[a] < value[c] || (value[a] == value[c] && a < c);
                });
    }
    first = buckets[b];
  }
}

void extract_impl(TaskType type, std::span<const Ask> asks,
                  std::span<const std::uint32_t>* remaining,
                  ExtractedAsks& out) {
  out.values.clear();
  out.owner.clear();
  // Reserve pass keeps the expansion allocation-free in the hot loop.
  std::size_t total = 0;
  for (std::size_t j = 0; j < asks.size(); ++j) {
    if (asks[j].type != type) continue;
    total += remaining ? (*remaining)[j] : asks[j].quantity;
  }
  out.values.reserve(total);
  out.owner.reserve(total);
  for (std::size_t j = 0; j < asks.size(); ++j) {
    if (asks[j].type != type) continue;
    const std::uint32_t k = remaining ? (*remaining)[j] : asks[j].quantity;
    if (remaining) {
      RIT_CHECK_MSG(k <= asks[j].quantity,
                    "remaining quantity " << k << " exceeds asked quantity "
                                          << asks[j].quantity << " for user "
                                          << j);
    }
    for (std::uint32_t f = 0; f < k; ++f) {
      out.values.push_back(asks[j].value);
      out.owner.push_back(static_cast<std::uint32_t>(j));
    }
  }
}
}  // namespace

ExtractedAsks extract(TaskType type, std::span<const Ask> asks) {
  ExtractedAsks out;
  extract_impl(type, asks, nullptr, out);
  return out;
}

ExtractedAsks extract_remaining(
    TaskType type, std::span<const Ask> asks,
    std::span<const std::uint32_t> remaining_quantity) {
  RIT_CHECK(remaining_quantity.size() == asks.size());
  ExtractedAsks out;
  extract_impl(type, asks, &remaining_quantity, out);
  return out;
}

void AskTypeIndex::build(std::uint32_t types, std::span<const Ask> asks) {
  offsets.assign(types + 1, 0);
  user.resize(asks.size());
  value.resize(asks.size());
  quantity.resize(asks.size());
  for (const Ask& a : asks) {
    RIT_CHECK_MSG(a.type.value < types, "ask type " << a.type.value
                                                    << " outside job's "
                                                    << types << " types");
    offsets[a.type.value + 1] += 1;
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
  for (std::uint32_t t = 0; t < types; ++t) {
    sort_by_value(value, offsets[t], offsets[t + 1],
                  by_value.data() + offsets[t], buckets);
  }
}

void extract_runs_into(TaskType type, const AskTypeIndex& index,
                       std::span<const std::uint32_t> allocation,
                       ExtractedRuns& out) {
  RIT_CHECK(type.value < index.num_types());
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
  // The type's value order, restricted to the live runs: each slot maps
  // to its run, and the exhausted ones are written past the cursor and
  // dropped.
  out.by_value.resize(n);
  std::uint32_t* by_value = out.by_value.data();
  const std::uint32_t* order = index.by_value.data() + begin;
  std::uint32_t next = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t run = run_of_slot[order[i] - begin];
    by_value[next] = run;
    next += run != kNoRun ? 1 : 0;
  }
  out.runs.resize(live);
  out.owner.resize(live);
  out.by_value.resize(live);
}

}  // namespace rit::core
