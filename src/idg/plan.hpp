// The execution plan (paper §V-A).
//
// Before any kernel executes, the visibilities of every baseline are
// partitioned into *work items*: a subgrid position plus the contiguous
// (time x channel) block of visibilities it covers. The partitioning is the
// paper's greedy algorithm: starting at the first timestep of a channel
// group, extend the time range for as long as the uv pixel bounding box of
// all member visibilities — inflated by `kernel_size` cells of taper/A-term
// support (Fig 5) — still fits inside a subgrid, the aterm slot does not
// change, and the item stays under `max_timesteps_per_subgrid`.
//
// Channel groups are chosen up front per baseline: the widest frequency
// range whose radial uv spread at any timestep still leaves room to
// accumulate timesteps (paper: "having C-tilde channels that can be covered
// by an N-tilde x N-tilde subgrid").
//
// Work items are then grouped into fixed-size *work groups* — the unit the
// kernels are launched on (Fig 6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/array.hpp"
#include "common/types.hpp"
#include "idg/parameters.hpp"
#include "idg/wplane.hpp"

namespace idg {

/// CSR-style mapping from grid tiles to the work items whose patch overlaps
/// each tile. Tiles partition the master grid into adder_tile_size^2 squares
/// (row-major tile ids, ragged at the top/right edges); an item appears in
/// the list of every tile its subgrid_size^2 patch intersects. Within a
/// tile the items are listed by ascending WorkItem::order so accumulation
/// order is canonical regardless of how the span itself is sorted.
struct TileBinning {
  std::size_t tile_size = 0;      ///< tile side length in grid pixels
  std::size_t tiles_per_row = 0;  ///< ceil(grid_size / tile_size)
  /// Prefix offsets into item_indices, size nr_tiles()+1.
  std::vector<std::uint32_t> tile_offsets;
  /// Concatenated per-tile lists of indices into the bound item span.
  std::vector<std::uint32_t> item_indices;

  std::size_t nr_tiles() const { return tiles_per_row * tiles_per_row; }
};

/// One subgrid and the visibility block it covers.
struct WorkItem {
  int baseline = 0;       ///< index into the dataset's baseline list
  int station1 = 0;
  int station2 = 0;
  int time_begin = 0;     ///< first timestep covered
  int nr_timesteps = 0;   ///< T-tilde
  int channel_begin = 0;  ///< first channel covered
  int nr_channels = 0;    ///< C-tilde
  int aterm_slot = 0;     ///< A-term slot the whole item falls into
  int coord_x = 0;        ///< patch origin (leftmost pixel) in the grid
  int coord_y = 0;        ///< patch origin (bottom pixel) in the grid
  float w_offset = 0.0f;  ///< W-plane offset in wavelengths (0 = no stacking)
  int w_plane = 0;        ///< index of the w-plane grid this item adds to

  /// Greedy-planner emission rank. Tile sorting permutes items inside a
  /// work group; the adder accumulates each tile's items in `order` so the
  /// per-pixel floating-point addition sequence — and hence the grid, bit
  /// for bit — is independent of the chosen PlanOrdering.
  std::uint32_t order = 0;

  std::size_t nr_visibilities() const {
    return static_cast<std::size_t>(nr_timesteps) *
           static_cast<std::size_t>(nr_channels);
  }
};

/// Bins `items` (indices relative to the span) by overlapped grid tile.
TileBinning bin_items_by_tile(const Parameters& params,
                              std::span<const WorkItem> items);

/// The generated work: items, grouping, and coverage statistics.
class Plan {
 public:
  /// Builds the plan for all baselines. `uvw` has dims [baseline][time]
  /// (meters); `frequencies` lists the channel frequencies in Hz. When a
  /// WPlaneModel with more than one plane is passed, every work item gets a
  /// w-plane assignment and the plane centre as its w_offset (W-stacking).
  Plan(const Parameters& params, const Array2D<UVW>& uvw,
       const std::vector<double>& frequencies,
       const std::vector<Baseline>& baselines,
       const WPlaneModel* wplanes = nullptr);

  /// Reassembles a plan from its serialized parts (the shard wire protocol
  /// ships a coordinator-built plan to worker processes, src/shard/). The
  /// items arrive exactly as the original plan ordered them — including the
  /// stamped emission ranks — so no re-sorting happens here; the per-group
  /// tile binnings are recomputed locally (a pure function of
  /// params + items, cheaper than shipping them).
  static Plan from_parts(const Parameters& params,
                         std::vector<WorkItem> items,
                         std::vector<float> wavenumbers,
                         std::size_t planned_visibilities,
                         std::size_t dropped_visibilities);

  const Parameters& parameters() const { return params_; }
  const std::vector<WorkItem>& items() const { return items_; }
  std::size_t nr_subgrids() const { return items_.size(); }

  /// Work groups as contiguous spans over items() (Fig 6).
  std::size_t nr_work_groups() const;
  std::span<const WorkItem> work_group(std::size_t g) const;

  /// Tile binning of work_group(g), precomputed once at plan time and
  /// shared by the adder and splitter.
  const TileBinning& work_group_tiles(std::size_t g) const;

  /// Visibilities covered by the plan (excludes dropped ones).
  std::size_t nr_planned_visibilities() const { return planned_visibilities_; }

  /// Visibilities that could not be placed because their subgrid would
  /// extend beyond the master grid.
  std::size_t nr_dropped_visibilities() const { return dropped_visibilities_; }

  /// Mean visibilities per subgrid — the quantity that drives the kernels'
  /// arithmetic intensity.
  double avg_visibilities_per_subgrid() const;

  /// Per-channel uvw scaling factor 2*pi*f/c used by the kernels.
  const std::vector<float>& wavenumbers() const { return wavenumbers_; }

 private:
  Plan() = default;
  void plan_baseline(std::size_t bl_index, const Array2D<UVW>& uvw,
                     const std::vector<double>& frequencies,
                     const Baseline& baseline, const WPlaneModel* wplanes);

  Parameters params_;
  std::vector<WorkItem> items_;
  std::vector<TileBinning> group_tiles_;
  std::vector<float> wavenumbers_;
  std::size_t planned_visibilities_ = 0;
  std::size_t dropped_visibilities_ = 0;
};

}  // namespace idg
