// The daemon workload's job mix: a fixed deck of small major-cycle specs
// around the `imaging_cycle` example's size, dealt to each client in a
// seeded order. Every pass over the deck holds each spec once, so a run's
// composition does not depend on the seed — only the order does. The
// specs carry the paper's 16 channels: with 4 the two concurrent jobs'
// OpenMP teams spend so much of each short parallel region waiting on one
// another that job latency swung 2x between runs on a 4-core host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "server/protocol.hpp"

namespace perfbench {

/// The distinct specs the mix draws from.
const std::vector<idg::server::JobSpec>& job_deck();

/// Index into job_deck() of the k-th job client `client` submits: pass
/// k / deck size is a Fisher-Yates shuffle of the deck seeded from
/// (seed, client, pass) through splitmix64.
std::size_t job_index(std::uint64_t seed, std::size_t client, std::size_t k);

}  // namespace perfbench
