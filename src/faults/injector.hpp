// Fault injection (paper Sections 3.4 and 6.4).
//
// Benign faults: fail-stop of controllers and switches, permanent link
// failures — always chosen so that the surviving control-plane graph stays
// connected, as the paper's recovery guarantees assume. Transient faults:
// arbitrary state corruption of switches and controllers (rules, manager
// sets, replyDB, tags, transport labels, detector counters), driving the
// self-stabilization experiments.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "flows/graph.hpp"
#include "net/simulator.hpp"
#include "switchd/abstract_switch.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ren::faults {

/// The injector's handle on the system under test.
struct ControlPlane {
  net::Simulator* sim = nullptr;
  std::vector<core::Controller*> controllers;
  std::vector<switchd::AbstractSwitch*> switches;
  /// Switches that must stay alive (e.g. host attachment points).
  std::vector<NodeId> protected_switches;

  // --- Restorable-fault bookkeeping ---------------------------------------
  // Filled by the kill_*/fail_* helpers below so that restart_node and
  // restore_link/restore_all_links can undo exactly what was injected.
  // Keep one ControlPlane alive across inject+restore calls to use these.
  std::vector<NodeId> killed_nodes;  ///< in kill order
  /// Per killed node: links the kill took down, with their pre-kill state so
  /// restart_node puts back exactly what was there (a TransientDown link
  /// stays transiently down; already-permanent failures are not touched).
  std::map<NodeId, std::vector<std::pair<int, net::LinkState>>>
      kill_downed_links;
  std::vector<int> failed_links;  ///< indices failed via fail_link*()
};

/// The current control-plane topology over live nodes, each with its kind,
/// and non-permanently-failed links (the injector's notion of Gc;
/// flows::live_topology).
flows::TopoView control_topology(const ControlPlane& cp);

/// Fail-stop a specific node (controller or switch), recording the links the
/// kill takes down so restart_node can restore them later.
void kill_node(ControlPlane& cp, NodeId id);

/// Revive a fail-stopped node: restores the links its kill took down and
/// restarts its timers; it resumes with the stale state it crashed with
/// (self-stabilization recovers from that by design). Returns false when the
/// node is already alive.
bool restart_node(ControlPlane& cp, NodeId id);

/// Revive every node in `killed_nodes` (rolling-restart convenience).
/// Returns the revived ids.
std::vector<NodeId> restart_all_nodes(ControlPlane& cp);

/// Permanently fail a specific link. No connectivity check — the caller
/// chooses whether to honor the paper's connected-survivor assumption.
/// Returns false when the link does not exist or is already down.
bool fail_link(ControlPlane& cp, NodeId a, NodeId b);

/// Restore a permanently failed link to Up ("the fiber got fixed": any
/// transient state the link had before fail_link is deliberately forgotten).
/// Returns false when the link does not exist or is not permanently down.
bool restore_link(ControlPlane& cp, NodeId a, NodeId b);

/// Restore every link recorded in `failed_links`; returns how many.
std::size_t restore_all_links(ControlPlane& cp);

/// Fail-stop one live controller chosen uniformly at random (keeps at least
/// one controller alive). Returns its id, or kNoNode if impossible.
NodeId kill_random_controller(ControlPlane& cp, Rng& rng);

/// Fail-stop `count` distinct controllers simultaneously (Fig. 11).
std::vector<NodeId> kill_random_controllers(ControlPlane& cp, Rng& rng,
                                            int count);

/// Fail-stop one switch whose removal keeps the surviving control plane
/// connected and does not strand a protected switch. Returns kNoNode if no
/// candidate exists.
NodeId kill_random_switch(ControlPlane& cp, Rng& rng);

/// Fail-stop up to `count` switches one after another (cascading failures).
std::vector<NodeId> kill_random_switches(ControlPlane& cp, Rng& rng,
                                         int count);

/// Permanently fail one link. With `keep_connected` (the default, matching
/// the paper's assumptions) only links whose removal keeps the control plane
/// connected are candidates; without it any live link qualifies, which is
/// how a scenario provokes a real partition. Returns {kNoNode, kNoNode} if
/// no candidate exists.
std::pair<NodeId, NodeId> fail_random_link(ControlPlane& cp, Rng& rng,
                                           bool keep_connected = true);

/// Permanently fail up to `count` links simultaneously (Fig. 14).
std::vector<std::pair<NodeId, NodeId>> fail_random_links(
    ControlPlane& cp, Rng& rng, int count, bool keep_connected = true);

/// Transient-fault storm: corrupt the state of every switch and controller
/// (rules, managers, replyDB, tags, transport, detectors) in one step.
void corrupt_all_state(ControlPlane& cp, Rng& rng);

}  // namespace ren::faults
