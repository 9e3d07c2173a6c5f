// Recursive bisection partitioners: RCB (recursive coordinate bisection,
// Berger & Bokhari) and RIB (recursive inertial bisection, Nour-Omid et
// al.). Both partition weighted points in space; both are used by the paper
// for CHARMM atom partitioning and DSMC cell remapping (§4.1, §4.2).
//
// RCB splits along the coordinate axis of largest extent; RIB splits along
// the principal inertial axis (dominant eigenvector of the weighted
// covariance). Both split at the weighted median so that, for k parts, the
// two halves receive load in proportion floor(k/2) : ceil(k/2) — this makes
// non-power-of-two part counts first-class.
#pragma once

#include <span>
#include <vector>

#include "partition/geometry.hpp"

namespace chaos::part {

/// Assignment of each point to a part in [0, nparts). `weights` may be
/// empty (uniform). Deterministic for fixed inputs. Throws chaos::Error if
/// a point's position along a split direction is not finite.
std::vector<int> recursive_coordinate_bisection(std::span<const Point3> points,
                                                std::span<const double> weights,
                                                int nparts);

std::vector<int> recursive_inertial_bisection(std::span<const Point3> points,
                                              std::span<const double> weights,
                                              int nparts);

/// Estimated sequential work of one partitioner invocation in abstract work
/// units, used by drivers to charge the cost model. Recursive bisection does
/// O(n log k) point-passes plus a per-level median selection; the constant
/// reflects the heavier arithmetic of RIB. The charge is an assumption of
/// the cost model, not a measurement of this implementation.
double bisection_work_units(std::size_t npoints, int nparts, bool inertial);

}  // namespace chaos::part
