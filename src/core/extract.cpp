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
                       std::span<const std::uint32_t> remaining_quantity,
                       ExtractedRuns& out) {
  RIT_CHECK(type.value < index.num_types());
  out.runs.clear();
  out.owner.clear();
  const std::uint32_t begin = index.offsets[type.value];
  const std::uint32_t end = index.offsets[type.value + 1];
  out.runs.reserve(end - begin);
  out.owner.reserve(end - begin);
  out.run_of_slot.resize(end - begin);
  std::uint64_t start = 0;
  for (std::uint32_t i = begin; i < end; ++i) {
    const std::uint32_t j = index.user[i];
    const std::uint32_t k = remaining_quantity[j];
    RIT_CHECK_MSG(k <= index.quantity[i],
                  "remaining quantity " << k << " exceeds asked quantity "
                                        << index.quantity[i] << " for user "
                                        << j);
    if (k == 0) {
      out.run_of_slot[i - begin] = kNoRun;
      continue;
    }
    out.run_of_slot[i - begin] = static_cast<std::uint32_t>(out.runs.size());
    out.runs.push_back(AskRun{index.value[i],
                              static_cast<std::uint32_t>(start), k});
    out.owner.push_back(j);
    start += k;
  }
  RIT_CHECK_MSG(start <= UINT32_MAX,
                start << " unit asks of one type exceed the 2^32 index space");
  // The type's value order, restricted to the live runs.
  out.by_value.resize(out.runs.size());
  std::size_t next = 0;
  for (std::uint32_t i = begin; i < end; ++i) {
    const std::uint32_t r = out.run_of_slot[index.by_value[i] - begin];
    if (r != kNoRun) out.by_value[next++] = r;
  }
}

}  // namespace rit::core
