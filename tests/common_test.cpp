#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/format_util.h"
#include "common/ids.h"
#include "common/log.h"
#include "common/parallel.h"

namespace rit {
namespace {

TEST(Check, PassingPredicateDoesNothing) {
  EXPECT_NO_THROW(RIT_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(RIT_CHECK_MSG(true, "never rendered"));
}

TEST(Check, FailingPredicateThrowsCheckFailure) {
  EXPECT_THROW(RIT_CHECK(false), CheckFailure);
}

TEST(Check, FailureMessageCarriesExpressionAndContext) {
  try {
    RIT_CHECK_MSG(2 > 3, "context " << 42);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 > 3"), std::string::npos) << what;
    EXPECT_NE(what.find("context 42"), std::string::npos) << what;
  }
}

TEST(Check, DcheckActiveInDebugOnly) {
#ifdef NDEBUG
  EXPECT_NO_THROW(RIT_DCHECK(false));
#else
  EXPECT_THROW(RIT_DCHECK(false), CheckFailure);
#endif
}

TEST(Ids, DistinctTypesCompareWithinTheirOwnSpace) {
  EXPECT_EQ(UserId{3}, UserId{3});
  EXPECT_NE(UserId{3}, UserId{4});
  EXPECT_LT(TaskType{1}, TaskType{2});
  EXPECT_EQ(kRootNode, NodeId{0});
}

TEST(Ids, HashableInUnorderedContainers) {
  std::hash<UserId> h;
  EXPECT_EQ(h(UserId{7}), h(UserId{7}));
}

TEST(FormatUtil, FormatDoublePrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
  EXPECT_EQ(format_double(0.5, 3), "0.500");
}

TEST(FormatUtil, FormatWithCommas) {
  EXPECT_EQ(format_with_commas(0), "0");
  EXPECT_EQ(format_with_commas(999), "999");
  EXPECT_EQ(format_with_commas(1000), "1,000");
  EXPECT_EQ(format_with_commas(1234567), "1,234,567");
  EXPECT_EQ(format_with_commas(-1234567), "-1,234,567");
}

TEST(FormatUtil, Join) {
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"a"}, ","), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(FormatUtil, Padding) {
  EXPECT_EQ(pad_left("x", 3), "  x");
  EXPECT_EQ(pad_right("x", 3), "x  ");
  EXPECT_EQ(pad_left("long", 2), "long");
}

TEST(Log, LevelGate) {
  const auto prev = log::level();
  log::set_level(log::Level::kError);
  EXPECT_EQ(log::level(), log::Level::kError);
  // Below-threshold emission writes nothing.
  testing::internal::CaptureStderr();
  log::emit(log::Level::kDebug, "suppressed");
  log::emit(log::Level::kWarn, "suppressed");
  log::emit(log::Level::kError, "shown");
  const std::string out = testing::internal::GetCapturedStderr();
  log::set_level(prev);
  EXPECT_EQ(out, "[ERROR] shown\n");
}

TEST(Log, TextFormatKeepsHistoricalShapeAndAppendsFields) {
  const auto prev_level = log::level();
  log::set_level(log::Level::kInfo);
  testing::internal::CaptureStderr();
  const log::Field fields[] = {{"k", "v"}};
  log::emit(log::Level::kInfo, "hello", fields);
  const std::string line = testing::internal::GetCapturedStderr();
  log::set_level(prev_level);
  EXPECT_EQ(line, "[INFO ] hello k=v\n");
}

TEST(Log, ConcurrentEmitsNeverInterleaveWithinALine) {
  // Parallel sweep workers log from several threads at once; every emitted
  // line must reach stderr whole.
  const auto prev_level = log::level();
  log::set_level(log::Level::kInfo);
  constexpr unsigned kThreads = 4;
  constexpr int kLines = 50;
  testing::internal::CaptureStderr();
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kThreads; ++w) {
    threads.emplace_back([w] {
      const log::Field fields[] = {{"worker", std::to_string(w)},
                                   {"pad", std::string(64, 'x')}};
      for (int i = 0; i < kLines; ++i) {
        log::emit(log::Level::kInfo, "tick", fields);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::string out = testing::internal::GetCapturedStderr();
  log::set_level(prev_level);

  std::vector<int> per_worker(kThreads, 0);
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    bool matched = false;
    for (unsigned w = 0; w < kThreads; ++w) {
      if (line == "[INFO ] tick worker=" + std::to_string(w) + " pad=" +
                      std::string(64, 'x')) {
        ++per_worker[w];
        matched = true;
      }
    }
    EXPECT_TRUE(matched) << line;
  }
  for (unsigned w = 0; w < kThreads; ++w) {
    EXPECT_EQ(per_worker[w], kLines) << "worker " << w;
  }
}

TEST(Parallel, ResolveThreadsClampsToItemsAndFloorsAtOne) {
  EXPECT_EQ(resolve_threads(4, 100), 4u);
  EXPECT_EQ(resolve_threads(8, 3), 3u);   // never more workers than items
  EXPECT_EQ(resolve_threads(5, 0), 1u);   // zero items still resolves to 1
  EXPECT_EQ(resolve_threads(1, 1000), 1u);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_EQ(resolve_threads(0, 1u << 20), hw);  // 0 = hardware concurrency
  } else {
    EXPECT_GE(resolve_threads(0, 1u << 20), 1u);
  }
}

TEST(Parallel, StridedCoversEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE(threads);
    std::vector<std::atomic<std::uint32_t>> hits(97);
    parallel_for_strided(hits.size(), threads,
                         [&](std::uint64_t i, unsigned /*worker*/) {
                           hits[i].fetch_add(1, std::memory_order_relaxed);
                         });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1u);
  }
}

TEST(Parallel, WorkerAssignmentIsTheStaticStride) {
  // Worker identity is a pure function of (index, threads): worker == i % T.
  // Deterministic merges downstream rely on exactly this partition.
  const unsigned threads = 3;
  std::vector<std::atomic<std::uint32_t>> owner(10);
  parallel_for_strided(owner.size(), threads,
                       [&](std::uint64_t i, unsigned worker) {
                         owner[i].store(worker, std::memory_order_relaxed);
                       });
  for (std::size_t i = 0; i < owner.size(); ++i) {
    EXPECT_EQ(owner[i].load(), i % threads);
  }
}

TEST(Parallel, SingleThreadRunsInlineOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  bool all_inline = true;
  parallel_for_strided(5, 1, [&](std::uint64_t, unsigned worker) {
    EXPECT_EQ(worker, 0u);
    all_inline = all_inline && (std::this_thread::get_id() == caller);
  });
  EXPECT_TRUE(all_inline);
}

TEST(Parallel, ZeroItemsNeverInvokesBody) {
  parallel_for_strided(0, 4, [](std::uint64_t, unsigned) {
    FAIL() << "body must not run for zero items";
  });
}

TEST(FormatUtil, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

}  // namespace
}  // namespace rit
