// Deterministic fault injection for the pipeline robustness suite
// (DESIGN.md §11).
//
// Production code marks *sites* — named points in a pipeline stage — with
// the IDG_FAULT_* macros below. A site is identified by a string (e.g.
// "processor.grid.kernel") plus the work-group index it is executing, so a
// test can arm "throw in stage X of group k" exactly. Three actions exist:
//
//   * kThrow   — throw idg::Error at the site (stage failure),
//   * kCorrupt — poison a float buffer with NaN (silent data corruption),
//   * kDelay   — sleep a bounded number of milliseconds (a slow stage).
//
// Determinism: an arm fires when the site name matches, the index matches
// (-1 = every hit), and a Bernoulli draw seeded by hash(seed, site, index)
// passes — the same arm fires on exactly the same hits in every run; no
// global RNG state is consumed.
//
// Zero overhead by default: the macros compile to ((void)0) unless the
// build sets -DIDG_FAULT_INJECTION (CMake option IDG_FAULT_INJECTION=ON).
// With the option on but nothing armed, a site costs one relaxed atomic
// load. The perf-smoke CI job runs the Release build with the option off,
// asserting the hooks really compile out of the hot paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace idg::fault {

/// True when this build compiled the injection hooks in
/// (IDG_FAULT_INJECTION=ON); tests skip injection cases otherwise.
constexpr bool compiled_in() {
#ifdef IDG_FAULT_INJECTION
  return true;
#else
  return false;
#endif
}

enum class Action {
  kThrow,    ///< throw idg::Error at the site
  kCorrupt,  ///< poison the site's float buffer with NaN
  kDelay,    ///< sleep delay_ms (capped) before continuing
};

/// One armed injection.
struct Arm {
  std::string site;         ///< exact site name to match
  std::int64_t index = -1;  ///< site index to match; -1 matches every hit
  Action action = Action::kThrow;
  std::uint32_t delay_ms = 0;  ///< kDelay sleep, capped at kMaxDelayMs
  /// Fire probability per matching hit; 1.0 = always. Draws are a pure
  /// function of (seed, site, index) — deterministic across runs.
  double probability = 1.0;
  std::uint64_t seed = 0;
  /// Transient faults: stop firing after this many fires; 0 = unlimited
  /// (persistent). `throw:<n>` in the spec syntax. The supervisor's
  /// retry-success tests arm `throw:1` — the first attempt fails, the
  /// retry passes — deterministically, with no RNG.
  std::uint32_t max_fires = 0;
  std::uint32_t fires = 0;  ///< internal fire count (guarded by the mutex)
};

/// Process-wide injection registry. All methods are thread-safe; concurrent
/// runs (e.g. the server's job threads) call the hook entry points
/// concurrently.
class Injector {
 public:
  static Injector& instance();

  void arm(Arm arm);

  /// Arms from a spec string — the format of the IDG_FAULT environment
  /// variable (read once at startup when the hooks are compiled in):
  ///
  ///   spec   := arm (';' arm)*
  ///   arm    := site ['@' index] '=' action
  ///   action := 'throw' [':' <count>] | 'corrupt' | 'delay:' <ms>
  ///
  /// `throw:<count>` is a transient fault: it fires at most <count> times,
  /// then the site passes (the supervisor's retry path recovers from it).
  /// e.g. IDG_FAULT="processor.grid.kernel@2=throw;processor.grid.fft=delay:10"
  /// Throws idg::Error on malformed specs.
  void arm_from_spec(const std::string& spec);

  void disarm_all();

  /// Re-arms the registry for a shard worker process (src/shard/worker.cpp
  /// calls it first thing). When IDG_FAULT_WORKER is set it REPLACES the
  /// arms inherited from IDG_FAULT, so a test can fault only the workers
  /// (or only the coordinator, by leaving it unset). Either way every fire
  /// count is reset: draws are already a pure function of
  /// (seed, site, index) — never the pid — so each (re)spawned worker
  /// replays the identical fault schedule and injected kill schedules stay
  /// deterministic across respawns.
  void rearm_for_worker();

  /// True while at least one arm is registered (one relaxed atomic load).
  bool enabled() const;

  /// How many times any arm fired at `site` / in total.
  std::uint64_t fired(const std::string& site) const;
  std::uint64_t total_fired() const;

  // Hook entry points (called through the IDG_FAULT_* macros).
  void hit(const char* site, std::int64_t index);  // kThrow / kDelay arms
  bool wants_corrupt(const char* site, std::int64_t index);

  static constexpr std::uint32_t kMaxDelayMs = 2000;

 private:
  Injector();
  struct State;
  State* state_;  // never freed: job threads may outlive static dtors
};

/// Writes quiet NaNs into `data` (first, middle and last element) — the
/// kCorrupt payload. Exposed so call sites stay one line.
void corrupt_floats(float* data, std::size_t count);

/// Throws a descriptive idg::Error when any of the `count` floats is
/// NaN/Inf. Compiled into the pipelines only under IDG_FAULT_INJECTION
/// (via IDG_FAULT_GUARD_FINITE): it turns an injected kCorrupt into a
/// detected failure instead of a silently wrong grid. Production inputs
/// are scrubbed by idg/scrub.hpp instead.
void require_finite(const char* site, std::int64_t index, const float* data,
                    std::size_t count);

}  // namespace idg::fault

#ifdef IDG_FAULT_INJECTION
#define IDG_FAULT_POINT(site, index)                                     \
  do {                                                                   \
    auto& idg_fault_inj_ = ::idg::fault::Injector::instance();           \
    if (idg_fault_inj_.enabled()) {                                      \
      idg_fault_inj_.hit((site), static_cast<std::int64_t>(index));      \
    }                                                                    \
  } while (false)
#define IDG_FAULT_CORRUPT(site, index, data, count)                      \
  do {                                                                   \
    auto& idg_fault_inj_ = ::idg::fault::Injector::instance();           \
    if (idg_fault_inj_.enabled() &&                                      \
        idg_fault_inj_.wants_corrupt((site),                             \
                                     static_cast<std::int64_t>(index))) { \
      ::idg::fault::corrupt_floats((data), (count));                     \
    }                                                                    \
  } while (false)
#define IDG_FAULT_GUARD_FINITE(site, index, data, count)                 \
  ::idg::fault::require_finite((site), static_cast<std::int64_t>(index), \
                               (data), (count))
#else
#define IDG_FAULT_POINT(site, index) ((void)0)
#define IDG_FAULT_CORRUPT(site, index, data, count) ((void)0)
#define IDG_FAULT_GUARD_FINITE(site, index, data, count) ((void)0)
#endif
