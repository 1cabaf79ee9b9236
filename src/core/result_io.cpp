#include "core/result_io.h"

#include <optional>
#include <sstream>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/num_io.h"
#include "common/record.h"

namespace rit::core {

namespace {
constexpr const char* kHeader = "ritcs-record v1";

ExperimentRecord read_record_text(std::string_view text,
                                  const std::string& label) {
  RecordReader r(text, label);
  r.header(kHeader);
  ExperimentRecord rec;
  rec.discount_base = r.hex_double("discount");
  {
    const auto t = r.tokens("job");
    if (t.empty()) r.fail("job needs at least one type");
    std::vector<std::uint32_t> demand;
    for (const auto& w : t) demand.push_back(r.as_u32(w, "job"));
    rec.job = Job(std::move(demand));
  }
  const std::size_t n = r.count(r.u64("users"), "users");
  rec.asks.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto t = r.tokens("ask");
    if (t.size() != 3) r.fail("ask wants 3 fields");
    rec.asks.push_back(Ask{TaskType{r.as_u32(t[0], "ask type")},
                           r.as_u32(t[1], "ask quantity"),
                           r.as_double(t[2], "ask value")});
  }
  const auto tree = r.tokens("tree");
  if (tree.size() != n + 1) r.fail("tree size mismatch");
  for (const auto& w : tree) rec.tree_parents.push_back(r.as_u32(w, "tree"));
  RitResult& res = rec.result;
  res.success = r.u64("success") != 0;
  res.eta = r.hex_double("eta");
  res.k_max = r.u32("kmax");
  res.probability_degraded = r.u64("degraded") != 0;
  res.achieved_probability = r.hex_double("achieved");
  const auto per_user = [&](std::string_view key) {
    const auto t = r.tokens(key);
    if (t.size() != n) r.fail(std::string(key) + " size mismatch");
    return t;
  };
  for (const auto& w : per_user("allocation")) {
    res.allocation.push_back(r.as_u32(w, "allocation"));
  }
  for (const auto& w : per_user("auction_payment")) {
    res.auction_payment.push_back(r.as_double(w, "auction_payment"));
  }
  for (const auto& w : per_user("payment")) {
    res.payment.push_back(r.as_double(w, "payment"));
  }
  // Structural sanity: the tree must parse (throws otherwise).
  (void)rec.tree();
  return rec;
}
}  // namespace

void write_record_file(const ExperimentRecord& record,
                       const std::string& path) {
  const auto n = record.asks.size();
  RIT_CHECK_MSG(record.tree_parents.size() == n + 1,
                "record: tree has " << record.tree_parents.size()
                                    << " nodes for " << n << " asks");
  RIT_CHECK(record.result.allocation.size() == n);
  RIT_CHECK(record.result.auction_payment.size() == n);
  RIT_CHECK(record.result.payment.size() == n);

  std::ostringstream out;
  out << kHeader << "\n";
  out << "discount " << format_hex_double(record.discount_base) << "\n";
  out << "job";
  for (std::uint32_t d : record.job.demand_vector()) out << ' ' << d;
  out << "\n";
  out << "users " << n << "\n";
  for (const Ask& a : record.asks) {
    out << "ask " << a.type.value << ' ' << a.quantity << ' '
        << format_hex_double(a.value) << "\n";
  }
  out << "tree";
  for (std::uint32_t p : record.tree_parents) out << ' ' << p;
  out << "\n";
  const RitResult& r = record.result;
  out << "success " << (r.success ? 1 : 0) << "\n";
  out << "eta " << format_hex_double(r.eta) << "\n";
  out << "kmax " << r.k_max << "\n";
  out << "degraded " << (r.probability_degraded ? 1 : 0) << "\n";
  out << "achieved " << format_hex_double(r.achieved_probability) << "\n";
  out << "allocation";
  for (std::uint32_t x : r.allocation) out << ' ' << x;
  out << "\n";
  out << "auction_payment";
  for (double p : r.auction_payment) out << ' ' << format_hex_double(p);
  out << "\n";
  out << "payment";
  for (double p : r.payment) out << ' ' << format_hex_double(p);
  out << "\n";
  // Records feed bit-exact replay (see replay_test); an interrupted write
  // must never leave a half-record that parses up to the truncation point.
  rit::write_file_atomic(path, out.str());
}

ExperimentRecord read_record_file(const std::string& path) {
  const std::optional<std::string> text = slurp_file(path);
  if (!text) throw CheckFailure("cannot open record file: " + path);
  return read_record_text(*text, "record '" + path + "'");
}

}  // namespace rit::core
