// Unit tests for the common substrate: types, arrays, allocator, counters,
// reporting and CLI parsing.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <complex>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

#include "common/aligned.hpp"
#include "common/array.hpp"
#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "common/cli.hpp"
#include "common/counters.hpp"
#include "common/error.hpp"
#include "common/report.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

namespace {

using idg::cfloat;
using idg::CheckpointReader;
using idg::CheckpointWriter;
using idg::Error;
using idg::Matrix2x2;
using idg::Options;

// --- types -----------------------------------------------------------------

TEST(Matrix2x2Test, IdentityIsMultiplicativeNeutral) {
  Matrix2x2<float> a{{1, 2}, {3, -4}, {0.5f, 0}, {-1, 1}};
  auto i = Matrix2x2<float>::identity();
  auto ai = a * i;
  auto ia = i * a;
  EXPECT_EQ(ai.xx, a.xx);
  EXPECT_EQ(ai.yy, a.yy);
  EXPECT_EQ(ia.xy, a.xy);
  EXPECT_EQ(ia.yx, a.yx);
}

TEST(Matrix2x2Test, AdjointIsInvolution) {
  Matrix2x2<float> a{{1, 2}, {3, -4}, {0.5f, 0.25f}, {-1, 1}};
  auto b = a.adjoint().adjoint();
  EXPECT_EQ(b.xx, a.xx);
  EXPECT_EQ(b.xy, a.xy);
  EXPECT_EQ(b.yx, a.yx);
  EXPECT_EQ(b.yy, a.yy);
}

TEST(Matrix2x2Test, AdjointOfProductReversesOrder) {
  Matrix2x2<float> a{{1, 2}, {3, -4}, {0.5f, 0.25f}, {-1, 1}};
  Matrix2x2<float> b{{0, 1}, {2, 0}, {1, 1}, {3, -2}};
  auto lhs = (a * b).adjoint();
  auto rhs = b.adjoint() * a.adjoint();
  EXPECT_NEAR(std::abs(lhs.xx - rhs.xx), 0.0f, 1e-6f);
  EXPECT_NEAR(std::abs(lhs.xy - rhs.xy), 0.0f, 1e-6f);
  EXPECT_NEAR(std::abs(lhs.yx - rhs.yx), 0.0f, 1e-6f);
  EXPECT_NEAR(std::abs(lhs.yy - rhs.yy), 0.0f, 1e-6f);
}

TEST(Matrix2x2Test, IndexOperatorMatchesMembers) {
  Matrix2x2<float> a{{1, 0}, {2, 0}, {3, 0}, {4, 0}};
  EXPECT_EQ(a[0], a.xx);
  EXPECT_EQ(a[1], a.xy);
  EXPECT_EQ(a[2], a.yx);
  EXPECT_EQ(a[3], a.yy);
}

TEST(TypesTest, ComputeNIsZeroAtPhaseCenter) {
  EXPECT_FLOAT_EQ(idg::compute_n(0.0f, 0.0f), 0.0f);
}

TEST(TypesTest, ComputeNMatchesAnalyticValue) {
  const float l = 0.3f, m = -0.4f;
  EXPECT_NEAR(idg::compute_n(l, m), 1.0f - std::sqrt(1.0f - 0.25f), 1e-6f);
}

TEST(TypesTest, ComputeNClampsBeyondHorizon) {
  EXPECT_FLOAT_EQ(idg::compute_n(1.0f, 1.0f), 1.0f);
}

// --- aligned allocator -------------------------------------------------------

TEST(AlignedTest, VectorDataIs64ByteAligned) {
  for (std::size_t n : {1, 3, 17, 1000}) {
    idg::AlignedVector<float> v(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % idg::kAlignment, 0u);
  }
}

TEST(AlignedTest, ComplexVectorAligned) {
  idg::AlignedVector<cfloat> v(123);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % idg::kAlignment, 0u);
}

// --- arrays ------------------------------------------------------------------

TEST(AlignedTest, LargeFreedBlockIsReusedForTheSameSize) {
  if (!idg::detail::kCacheLargeBlocks) GTEST_SKIP() << "cache off under ASan";
  constexpr std::size_t kFloats =
      idg::detail::LargeBlockCache::kMinBytes / sizeof(float);
  idg::detail::LargeBlockCache::instance().release();
  const float* first = nullptr;
  {
    idg::AlignedVector<float> v(kFloats, 1.0f);
    first = v.data();
  }
  // Same size: the kept block comes back, 64-byte aligned and initialized.
  idg::AlignedVector<float> again(kFloats);
  EXPECT_EQ(again.data(), first);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(again.data()) % 64, 0u);
  EXPECT_EQ(again.front(), 0.0f);
  EXPECT_EQ(again.back(), 0.0f);
}

TEST(AlignedTest, LargeAllocationOfAnotherSizeReleasesKeptBlocks) {
  if (!idg::detail::kCacheLargeBlocks) GTEST_SKIP() << "cache off under ASan";
  constexpr std::size_t kBytes = idg::detail::LargeBlockCache::kMinBytes;
  auto& cache = idg::detail::LargeBlockCache::instance();
  void* kept = std::aligned_alloc(64, kBytes);
  ASSERT_NE(kept, nullptr);
  cache.give(kept, kBytes);
  // A miss empties the cache, so a later request of the kept size misses.
  EXPECT_EQ(cache.take(2 * kBytes), nullptr);
  EXPECT_EQ(cache.take(kBytes), nullptr);
}

TEST(AlignedTest, ForkReleasesKeptBlocks) {
  if (!idg::detail::kCacheLargeBlocks) GTEST_SKIP() << "cache off under ASan";
  constexpr std::size_t kBytes = idg::detail::LargeBlockCache::kMinBytes;
  auto& cache = idg::detail::LargeBlockCache::instance();
  void* kept = std::aligned_alloc(64, kBytes);
  ASSERT_NE(kept, nullptr);
  cache.give(kept, kBytes);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ::_exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_EQ(cache.take(kBytes), nullptr);
}

TEST(ArrayTest, RowMajorLayout) {
  idg::Array3D<int> a(2, 3, 4);
  int value = 0;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      for (std::size_t k = 0; k < 4; ++k) a(i, j, k) = value++;
  EXPECT_EQ(a.data()[0], 0);
  EXPECT_EQ(a.data()[4 * 3], 12);  // (1,0,0)
  EXPECT_EQ(a.data()[2 * 3 * 4 - 1], 23);
}

TEST(ArrayTest, ZeroInitialized) {
  idg::Array2D<cfloat> a(5, 5);
  for (auto v : a) EXPECT_EQ(v, cfloat{});
}

TEST(ArrayTest, FillAndZero) {
  idg::Array1D<float> a(10);
  a.fill(3.5f);
  for (auto v : a) EXPECT_EQ(v, 3.5f);
  a.zero();
  for (auto v : a) EXPECT_EQ(v, 0.0f);
}

TEST(ArrayTest, OutOfRangeIndexThrows) {
  idg::Array2D<int> a(2, 2);
  EXPECT_THROW(a(2, 0), idg::Error);
  EXPECT_THROW(a(0, 5), idg::Error);
}

TEST(ArrayTest, BytesAndSize) {
  idg::Array2D<cfloat> a(8, 16);
  EXPECT_EQ(a.size(), 128u);
  EXPECT_EQ(a.bytes(), 128u * sizeof(cfloat));
}

TEST(ArrayTest, ViewSharesStorage) {
  idg::Array2D<int> a(3, 3);
  auto v = a.view();
  v(1, 1) = 42;
  EXPECT_EQ(a(1, 1), 42);
}

// --- counters ----------------------------------------------------------------

TEST(OpCountsTest, OpsDefinitionMatchesPaper) {
  // One gridder inner iteration: 17 FMAs + 1 sincos = 36 ops, rho = 17.
  idg::OpCounts c;
  c.fma = 17;
  c.sincos = 1;
  EXPECT_EQ(c.ops(), 36u);
  EXPECT_EQ(c.flops(), 34u);
  EXPECT_DOUBLE_EQ(c.rho(), 17.0);
}

TEST(OpCountsTest, AdditionAndScaling) {
  idg::OpCounts a;
  a.fma = 10;
  a.dev_bytes = 100;
  a.visibilities = 5;
  idg::OpCounts b = a + a;
  EXPECT_EQ(b.fma, 20u);
  EXPECT_EQ(b.dev_bytes, 200u);
  b *= 3;
  EXPECT_EQ(b.visibilities, 30u);
}

TEST(OpCountsTest, IntensityComputation) {
  idg::OpCounts c;
  c.fma = 50;  // 100 ops
  c.dev_bytes = 25;
  c.shared_bytes = 200;
  EXPECT_DOUBLE_EQ(c.intensity_dev(), 4.0);
  EXPECT_DOUBLE_EQ(c.intensity_shared(), 0.5);
}

TEST(OpCountsTest, ZeroByteIntensityIsZero) {
  idg::OpCounts c;
  c.fma = 10;
  EXPECT_DOUBLE_EQ(c.intensity_dev(), 0.0);
}

// --- timer ---------------------------------------------------------------------

TEST(TimerTest, StageAccumulation) {
  idg::StageTimes times;
  times.add("gridder", 1.0);
  times.add("gridder", 0.5);
  times.add("adder", 0.25);
  EXPECT_DOUBLE_EQ(times.get("gridder"), 1.5);
  EXPECT_DOUBLE_EQ(times.get("adder"), 0.25);
  EXPECT_DOUBLE_EQ(times.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(times.total(), 1.75);
}

TEST(TimerTest, MergeStageTimes) {
  idg::StageTimes a, b;
  a.add("x", 1.0);
  b.add("x", 2.0);
  b.add("y", 3.0);
  a += b;
  EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
  EXPECT_DOUBLE_EQ(a.get("y"), 3.0);
}

TEST(TimerTest, ScopedTimerAddsNonNegativeTime) {
  idg::StageTimes times;
  { idg::ScopedStageTimer t(times, "scope"); }
  EXPECT_GE(times.get("scope"), 0.0);
}

// --- report --------------------------------------------------------------------

TEST(ReportTest, TablePrintsAlignedColumns) {
  idg::Table t({"name", "value"});
  t.row().add("alpha").add(1.5, 1);
  t.row().add("b").add(std::uint64_t{42});
  std::ostringstream oss;
  t.print(oss);
  const std::string s = oss.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(ReportTest, TooManyCellsThrows) {
  idg::Table t({"only"});
  t.row().add("x");
  EXPECT_THROW(t.add("y"), idg::Error);
}

TEST(ReportTest, AddBeforeRowThrows) {
  idg::Table t({"a"});
  EXPECT_THROW(t.add("x"), idg::Error);
}

TEST(ReportTest, SiFormat) {
  EXPECT_EQ(idg::si_format(1500.0, 1), "1.5 k");
  EXPECT_EQ(idg::si_format(2.5e9, 2), "2.50 G");
  EXPECT_EQ(idg::si_format(12.0, 0), "12 ");
}

TEST(ReportTest, AsciiBar) {
  EXPECT_EQ(idg::ascii_bar(1.0, 4), "####");
  EXPECT_EQ(idg::ascii_bar(0.0, 4), "....");
  EXPECT_EQ(idg::ascii_bar(0.5, 4), "##..");
  EXPECT_EQ(idg::ascii_bar(2.0, 4), "####");  // clamped
}

// --- cli -----------------------------------------------------------------------

TEST(CliTest, ParsesValuesAndFlags) {
  const char* argv[] = {"prog", "--stations", "20", "--paper", "--scale=0.5",
                        "pos1"};
  idg::Options opts(6, argv);
  EXPECT_EQ(opts.get("stations", 0L), 20);
  EXPECT_TRUE(opts.flag("paper"));
  EXPECT_DOUBLE_EQ(opts.get("scale", 1.0), 0.5);
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "pos1");
}

TEST(CliTest, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  idg::Options opts(1, argv);
  EXPECT_EQ(opts.get("stations", 42L), 42);
  EXPECT_EQ(opts.get("name", std::string("dflt")), "dflt");
  EXPECT_FALSE(opts.flag("paper"));
}

TEST(CliTest, MissingValueThrows) {
  const char* argv[] = {"prog", "--stations"};
  EXPECT_THROW(idg::Options(2, argv), idg::Error);
}

TEST(CliTest, BadIntegerThrows) {
  const char* argv[] = {"prog", "--stations", "abc"};
  idg::Options opts(3, argv);
  EXPECT_THROW(opts.get("stations", 0L), idg::Error);
}

TEST(CliTest, EnvironmentFallback) {
  ::setenv("IDG_BENCH_GRID_SIZE", "128", 1);
  const char* argv[] = {"prog"};
  idg::Options opts(1, argv);
  EXPECT_EQ(opts.get("grid-size", 0L), 128);
  ::unsetenv("IDG_BENCH_GRID_SIZE");
}

TEST(CliTest, CommandLineBeatsEnvironment) {
  ::setenv("IDG_BENCH_GRID_SIZE", "128", 1);
  const char* argv[] = {"prog", "--grid-size", "256"};
  idg::Options opts(3, argv);
  EXPECT_EQ(opts.get("grid-size", 0L), 256);
  ::unsetenv("IDG_BENCH_GRID_SIZE");
}

TEST(CliTest, DuplicateOptionIsRejected) {
  const char* argv[] = {"prog", "--scale=0.5", "--scale", "2"};
  try {
    Options opts(4, argv);
    FAIL() << "expected idg::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate option --scale"),
              std::string::npos)
        << e.what();
  }
}

TEST(CliTest, DuplicateFlagIsRejected) {
  const char* argv[] = {"prog", "--paper", "--paper"};
  EXPECT_THROW(Options(3, argv), Error);
}

TEST(CliTest, UnknownOptionsRejectedWhenCatalogueGiven) {
  // All problems must surface in ONE error, not one per run. An unknown
  // name never swallows the next token as its value.
  const char* argv[] = {"prog",       "--grid=64", "--tune",
                        "--subgird=24", "--chanels", "8"};
  try {
    Options opts(6, argv, {"paper"}, {"grid", "subgrid", "channels"});
    FAIL() << "expected idg::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown option --tune"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown option --subgird"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown option --chanels"), std::string::npos) << what;
    EXPECT_EQ(what.find("--grid"), std::string::npos) << what;
  }
}

TEST(CliTest, StandardCatalogueRejectsRemovedTuningKnobs) {
  const char* argv[] = {"prog",         "--grid",      "64",
                        "--tune",       "--tune-db",   "db.json",
                        "--candidates", "optimized",   "--warmup",
                        "1",            "--repeats",   "3"};
  try {
    idg::parse_standard_options(12, argv);
    FAIL() << "expected idg::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    for (const char* name :
         {"--tune\n", "--tune-db", "--candidates", "--warmup", "--repeats"}) {
      EXPECT_NE(what.find(std::string("unknown option ") + name),
                std::string::npos)
          << name << " in: " << what;
    }
    EXPECT_EQ(what.find("--grid"), std::string::npos) << what;
  }
}

TEST(CliTest, KnownCatalogueAcceptsListedOptionsAndFlags) {
  const char* argv[] = {"prog", "--grid", "64", "--paper"};
  Options opts(4, argv, {"paper"}, {"grid"});
  EXPECT_EQ(opts.get("grid", 0L), 64L);
  EXPECT_TRUE(opts.flag("paper"));
}

// --- cancellation edge cases (DESIGN.md §12) --------------------------------
//
// The idg-server creates a per-job CancelToken at ADMISSION, so these
// edges are load-bearing there: a zero deadline means "no deadline", an
// already-expired deadline must throw at the very first check site (the
// job is cancelled before it ever starts — see the server's
// deadline-while-queued test), and request_cancel must be safe against a
// CancelScope tearing down concurrently on another thread.

TEST(CheckpointTest, ZeroLengthFieldRoundTrips) {
  // An empty array's data() is null; reading it back must not hand that
  // null pointer to memcpy.
  const std::vector<float> empty;
  CheckpointWriter writer;
  writer.write_pod(std::uint32_t{7});
  writer.write_array(empty.data(), empty.size());
  writer.write_pod(std::uint32_t{9});
  const std::string path = ::testing::TempDir() + "zero_length.ckpt";
  writer.commit(path, "IDGTEST1");

  CheckpointReader reader(path, "IDGTEST1");
  std::uint32_t before = 0, after = 0;
  std::vector<float> back;
  reader.read_pod(before, "before");
  reader.read_array(back.data(), back.size(), "empty field");
  reader.read_pod(after, "after");
  reader.finish();
  EXPECT_EQ(before, 7u);
  EXPECT_EQ(after, 9u);
  std::remove(path.c_str());
}

// --- CRC-32 -----------------------------------------------------------------
//
// Every IDGCKPT1, IDGDATA2, IDGSHRD1 and IDGJOB1 checksum goes through
// idg::crc32, so its values are part of the on-disk and wire formats.

/// The plain byte-at-a-time reflected CRC-32 the formats were defined with.
std::uint32_t crc32_bytewise(const unsigned char* p, std::size_t size,
                             std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xffffffffu;
}

std::vector<unsigned char> seeded_bytes(std::size_t size) {
  std::vector<unsigned char> bytes(size);
  std::uint32_t x = 0x9e3779b9u;
  for (auto& b : bytes) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<unsigned char>(x >> 24);
  }
  return bytes;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(idg::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(idg::crc32(nullptr, 0), 0u);
  EXPECT_EQ(idg::crc32("", 0), 0u);
}

TEST(Crc32Test, ChainingEqualsOneShotForEverySplit) {
  const auto bytes = seeded_bytes(1024);
  const std::uint32_t whole = idg::crc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head = idg::crc32(bytes.data(), split);
    ASSERT_EQ(idg::crc32(bytes.data() + split, bytes.size() - split, head),
              whole)
        << "split at " << split;
  }
}

TEST(Crc32Test, MatchesTheBytewiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0-67 cover no full block, one to four blocks, and every tail
  // length; offsets 0-7 cover every misalignment of the word loads.
  const auto bytes = seeded_bytes(8 + 67);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 67; ++length) {
      const unsigned char* p = bytes.data() + offset;
      ASSERT_EQ(idg::crc32(p, length), crc32_bytewise(p, length))
          << "offset " << offset << ", length " << length;
      ASSERT_EQ(idg::crc32(p, length, 0x12345678u),
                crc32_bytewise(p, length, 0x12345678u))
          << "seeded, offset " << offset << ", length " << length;
    }
  }
}

TEST(CancelTokenTest, ZeroDeadlineNeverExpires) {
  idg::CancelToken token(0);
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check("test.site"));
  // Explicit cancellation still works on a deadline-free token.
  token.request_cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(token.check("test.site"), idg::CancelledError);
}

TEST(CancelTokenTest, AlreadyPastDeadlineThrowsAtFirstCheckByName) {
  idg::CancelToken token(1);
  EXPECT_TRUE(token.has_deadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  try {
    token.check("test.queued", 7);
    FAIL() << "an expired deadline must throw at the first check";
  } catch (const idg::CancelledError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadline of 1 ms exceeded"), std::string::npos)
        << what;
    EXPECT_NE(what.find("test.queued"), std::string::npos) << what;
    EXPECT_NE(what.find("work group 7"), std::string::npos) << what;
  }
  // A deadline crossing is latched: it stays cancelled forever.
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(token.check("test.queued"), idg::CancelledError);
}

TEST(CancelTokenTest, RequestCancelIsIdempotentAndSticky) {
  idg::CancelToken token;
  token.request_cancel();
  token.request_cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelScopeTest, CancelRacingScopeTeardownIsSafe) {
  // One thread hammers request_cancel + any_cancel_requested while another
  // registers and unregisters scopes for the same token — the exact race
  // between a job thread finishing (scope teardown) and the server's drain
  // (request_cancel from the event loop).
  idg::CancelToken token;
  std::atomic<bool> stop{false};
  std::thread canceller([&]() {
    do {  // at least one cancel, even if the scope loop already finished
      token.request_cancel();
      (void)idg::any_cancel_requested();
    } while (!stop.load(std::memory_order_acquire));
  });
  for (int i = 0; i < 2000; ++i) {
    idg::CancelScope scope(token);
    // The registry observes the (always-cancelled) token while registered.
  }
  stop.store(true, std::memory_order_release);
  canceller.join();
  EXPECT_TRUE(token.cancelled());
  {
    idg::CancelScope scope(token);
    EXPECT_TRUE(idg::any_cancel_requested());
  }
  // After every scope is gone, the registry is empty again.
  EXPECT_FALSE(idg::any_cancel_requested());
}

TEST(CancelScopeTest, NestedScopesUnregisterInAnyOrderSafely) {
  idg::CancelToken outer;
  idg::CancelToken inner;
  {
    idg::CancelScope a(outer);
    {
      idg::CancelScope b(inner);
      inner.request_cancel();
      EXPECT_TRUE(idg::any_cancel_requested());
    }
    // inner unregistered; outer is live but not cancelled.
    EXPECT_FALSE(idg::any_cancel_requested());
    outer.request_cancel();
    EXPECT_TRUE(idg::any_cancel_requested());
  }
  EXPECT_FALSE(idg::any_cancel_requested());
}

}  // namespace
