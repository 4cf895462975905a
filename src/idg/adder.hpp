// Adder and splitter (pipeline step 3, paper §V-B-d).
//
// The adder accumulates Fourier-domain subgrids onto the master grid.
// Subgrids may overlap, so parallelizing over subgrids would race on grid
// pixels. The paper parallelizes over *grid rows* — each thread owns a
// disjoint row band and scans all work items for patches intersecting it
// (kept below as the reference implementation). The default implementation
// sharpens that idea: the grid is partitioned into square tiles, the plan's
// TileBinning maps each tile to the items overlapping it, and threads own
// whole tiles — every thread touches only the items near its tile instead
// of scanning all of them, and tile boundaries sit on cache-line boundaries
// so there is still no sharing and no atomics. Within a tile, items are
// accumulated by ascending WorkItem::order, which makes the per-pixel
// floating-point sum order — and hence the grid, bit for bit — identical to
// the row-band reference on an unsorted plan. The splitter reads the
// (immutable) grid with the same binning so its grid reads are
// tile-sequential.
#pragma once

#include <span>

#include "common/array.hpp"
#include "common/types.hpp"
#include "idg/parameters.hpp"
#include "idg/plan.hpp"

namespace idg {

/// grid(pol, y0+y, x0+x) += subgrid(i, pol, y, x) for every item, using a
/// precomputed tile binning of `items` (see Plan::work_group_tiles).
/// `grid` dims: [4][grid_size][grid_size].
void add_subgrids_to_grid(const Parameters& params,
                          std::span<const WorkItem> items,
                          const TileBinning& binning,
                          ArrayView<const cfloat, 4> subgrids,
                          ArrayView<cfloat, 3> grid);

/// Convenience overload: bins `items` on the fly.
void add_subgrids_to_grid(const Parameters& params,
                          std::span<const WorkItem> items,
                          ArrayView<const cfloat, 4> subgrids,
                          ArrayView<cfloat, 3> grid);

/// The paper's row-band adder, kept as the semantic reference: tests pin
/// the tiled adder's output bit-for-bit against it.
void add_subgrids_to_grid_rowband(const Parameters& params,
                                  std::span<const WorkItem> items,
                                  ArrayView<const cfloat, 4> subgrids,
                                  ArrayView<cfloat, 3> grid);

/// subgrid(i, pol, y, x) = grid(pol, y0+y, x0+x) for every item, reading
/// the grid tile by tile.
void split_subgrids_from_grid(const Parameters& params,
                              std::span<const WorkItem> items,
                              const TileBinning& binning,
                              ArrayView<const cfloat, 3> grid,
                              ArrayView<cfloat, 4> subgrids);

/// Convenience overload: bins `items` on the fly.
void split_subgrids_from_grid(const Parameters& params,
                              std::span<const WorkItem> items,
                              ArrayView<const cfloat, 3> grid,
                              ArrayView<cfloat, 4> subgrids);

}  // namespace idg
