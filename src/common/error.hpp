// Error handling for the IDG reproduction.
//
// Library code throws `idg::Error` (a std::runtime_error) for contract
// violations that depend on user input (bad parameters, impossible plans).
// `IDG_CHECK` is used at public API boundaries; internal invariants use
// `IDG_ASSERT`, which is compiled out in release builds only if
// IDG_DISABLE_ASSERT is defined (it is kept by default: the kernels are
// memory-bound on checks only in debug paths).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace idg {

class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown once a CancelToken (common/cancel.hpp) is cancelled — explicitly
/// or by its deadline. A distinct type on purpose: the resilient
/// supervisor (idg/supervisor.hpp) retries StageFailure but rethrows
/// cancellation immediately, and with_stage_context preserves the type
/// when a cancellation unwinds a stage.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what) : Error(what) {}
};

/// A stage failure with its provenance attached: which stage site threw
/// and which work group it was executing (-1 when not attributable to a
/// group). The what() string carries the same human-readable message as
/// before; the structured fields exist so the resilient supervisor
/// (DESIGN.md §12) can retry or quarantine the exact failed group instead
/// of parsing error text.
class StageFailure : public Error {
 public:
  StageFailure(const std::string& what, std::string site, long long group)
      : Error(what), site_(std::move(site)), group_(group) {}

  const std::string& site() const { return site_; }
  long long group() const { return group_; }

 private:
  std::string site_;
  long long group_;
};

/// Runs `fn`, rethrowing any exception as idg::StageFailure prefixed with
/// the pipeline stage site and work-group id — the error-propagation
/// contract (DESIGN.md §11): a stage failure always surfaces as one
/// descriptive idg::Error naming where it happened (StageFailure derives
/// from Error, so existing catch sites are unchanged). Cancellation
/// (CancelledError) passes through untouched: a deadline abort is not a
/// stage failure and must never be retried as one.
template <typename Fn>
decltype(auto) with_stage_context(const char* site, long long group,
                                  Fn&& fn) {
  try {
    return fn();
  } catch (const CancelledError&) {
    throw;
  } catch (const std::exception& e) {
    std::ostringstream oss;
    oss << "stage '" << site << "' failed on work group " << group << ": "
        << e.what();
    throw StageFailure(oss.str(), site, group);
  } catch (...) {
    std::ostringstream oss;
    oss << "stage '" << site << "' failed on work group " << group
        << " with an unknown exception";
    throw StageFailure(oss.str(), site, group);
  }
}

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* expr,
                                             const char* file, int line,
                                             const std::string& message) {
  std::ostringstream oss;
  oss << file << ':' << line << ": check failed: " << expr;
  if (!message.empty()) oss << " — " << message;
  throw Error(oss.str());
}
}  // namespace detail

}  // namespace idg

/// Validates a user-facing precondition; throws idg::Error on failure.
#define IDG_CHECK(expr, message)                                          \
  do {                                                                    \
    if (!(expr)) {                                                        \
      ::idg::detail::throw_check_failure(#expr, __FILE__, __LINE__,       \
                                         (std::ostringstream{} << message) \
                                             .str());                     \
    }                                                                     \
  } while (false)

/// Internal invariant; same behaviour as IDG_CHECK unless disabled.
#ifdef IDG_DISABLE_ASSERT
#define IDG_ASSERT(expr, message) ((void)0)
#else
#define IDG_ASSERT(expr, message) IDG_CHECK(expr, message)
#endif
