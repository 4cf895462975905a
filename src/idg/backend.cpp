#include "idg/backend.hpp"

#include <sstream>

#include "common/error.hpp"
#include "idg/processor.hpp"
#include "idg/supervisor.hpp"

namespace idg {

std::vector<std::string> backend_names() {
  return {"synchronous", "resilient"};
}

namespace {
/// Canonical executor name for a spelling; nullopt for unknown ones.
std::optional<std::string> canonical_executor(const std::string& name) {
  if (name == "synchronous" || name == "sync" || name == "processor")
    return "synchronous";
  if (name == "resilient") return "resilient";
  return std::nullopt;
}

[[noreturn]] void throw_unknown_backend(const std::string& name) {
  std::ostringstream oss;
  oss << "unknown gridder backend '" << name << "'; valid backends:";
  for (const auto& known : backend_names()) oss << " '" << known << "'";
  throw Error(oss.str());
}

KernelSetResolver g_kernel_set_resolver = nullptr;

/// The kernel set a BackendOptions selects: an explicit pointer wins, then
/// the registry name (through the installed resolver), then the reference
/// set.
const KernelSet& resolve_kernels(const BackendOptions& options) {
  if (options.kernels != nullptr) return *options.kernels;
  if (options.kernel_set.empty()) return reference_kernels();
  if (options.kernel_set == "reference") return reference_kernels();
  IDG_CHECK(g_kernel_set_resolver != nullptr,
            "BackendOptions::kernel_set = '"
                << options.kernel_set
                << "' needs the kernel registry, which the idg_kernels "
                   "library installs at load time; link idg_kernels (or "
                   "pass BackendOptions::kernels directly)");
  return g_kernel_set_resolver(options.kernel_set);
}
}  // namespace

void set_kernel_set_resolver(KernelSetResolver resolver) {
  g_kernel_set_resolver = resolver;
}

const KernelSet& resolve_kernel_set(const std::string& name) {
  BackendOptions options;
  options.kernel_set = name;
  return resolve_kernels(options);
}

BackendOptions parse_backend_spec(const std::string& spec) {
  const auto canonical = canonical_executor(spec);
  if (!canonical) throw_unknown_backend(spec);
  BackendOptions options;
  options.executor = *canonical;
  return options;
}

std::unique_ptr<GridderBackend> make_backend(const BackendOptions& options,
                                             const Parameters& params) {
  const KernelSet& kernels = resolve_kernels(options);
  const auto executor = canonical_executor(options.executor);
  if (!executor) throw_unknown_backend(options.executor);

  auto processor = std::make_unique<Processor>(params, kernels);
  // Supervisor knobs on the synchronous executor mean "wrap it" (the
  // benches' --retries convention); the resilient executor always wraps.
  if (*executor == "synchronous" && !options.supervisor.has_value()) {
    return processor;
  }
  return make_resilient_backend(
      std::move(processor), options.supervisor.value_or(SupervisorConfig{}));
}

std::unique_ptr<GridderBackend> make_backend(const std::string& name,
                                             const Parameters& params,
                                             const KernelSet& kernels) {
  BackendOptions options = parse_backend_spec(name);
  options.kernels = &kernels;
  return make_backend(options, params);
}

}  // namespace idg
