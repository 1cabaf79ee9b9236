#include "core/extract.h"

namespace rit::core {

namespace {
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
  std::uint64_t start = 0;
  for (std::uint32_t i = begin; i < end; ++i) {
    const std::uint32_t j = index.user[i];
    const std::uint32_t k = remaining_quantity[j];
    RIT_CHECK_MSG(k <= index.quantity[i],
                  "remaining quantity " << k << " exceeds asked quantity "
                                        << index.quantity[i] << " for user "
                                        << j);
    if (k == 0) continue;
    out.runs.push_back(AskRun{index.value[i],
                              static_cast<std::uint32_t>(start), k});
    out.owner.push_back(j);
    start += k;
  }
  RIT_CHECK_MSG(start <= UINT32_MAX,
                start << " unit asks of one type exceed the 2^32 index space");
}

}  // namespace rit::core
