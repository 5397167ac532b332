// The simulated elastic cloud cluster.
//
// Owns VMs and their slots, supports provisioning and releasing VMs at
// simulation time (scale-in / scale-out), tracks slot occupancy, and
// computes a per-minute billing total — the cost model that motivates the
// paper's consolidation example (Fig. 1).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/vm.hpp"
#include "common/ids.hpp"
#include "sim/engine.hpp"

namespace rill::cluster {

class Cluster {
 public:
  explicit Cluster(sim::Engine& engine) : engine_(engine) {}

  /// Provision a VM of the given type; slots are created immediately.
  VmId provision(VmType type, std::string label = {});

  /// Provision `count` VMs of the same type with numbered labels.
  std::vector<VmId> provision_n(VmType type, int count,
                                const std::string& label_prefix);

  /// Release a VM; its slots must be vacant.
  void release(VmId vm);

  /// Release every still-active VM of `vms` that is not in `keep` — the
  /// VMs a migration vacated (scale-in billing benefit).
  void release_vms_not_in(const std::vector<VmId>& vms,
                          const std::vector<VmId>& keep);

  [[nodiscard]] const Vm& vm(VmId id) const;
  [[nodiscard]] const Slot& slot(SlotId id) const;

  /// Which VM hosts a slot — the network model uses this to decide
  /// intra- vs inter-VM latency.
  [[nodiscard]] VmId vm_of(SlotId id) const { return slot(id).vm; }

  /// Occupy / vacate a slot.  Throws if the slot is already taken (occupy)
  /// or already empty (vacate) — double-booking a 1-core slot is a
  /// scheduler bug we want to fail loudly on.
  void occupy(SlotId slot, InstanceId instance);
  void vacate(SlotId slot);

  /// All vacant slots on active VMs, in (VmId, slot index) order so that
  /// schedulers see a deterministic sequence.
  [[nodiscard]] std::vector<SlotId> vacant_slots() const;

  /// All vacant slots restricted to the given VM set.
  [[nodiscard]] std::vector<SlotId> vacant_slots_on(
      const std::vector<VmId>& vms) const;

  [[nodiscard]] std::vector<VmId> active_vms() const;
  [[nodiscard]] std::size_t vm_count() const noexcept { return vms_.size(); }

  /// Accumulated cost in USD cents, billed per started minute per VM, from
  /// provisioning until release (or `now` if still active).
  [[nodiscard]] double billed_cents() const;

  /// Fraction of slots occupied across the given VMs (utilisation as in
  /// the paper's Fig. 1 discussion).
  [[nodiscard]] double utilisation(const std::vector<VmId>& vms) const;

 private:
  sim::Engine& engine_;
  std::unordered_map<VmId, Vm> vms_;
  std::unordered_map<SlotId, Slot> slots_;
  std::vector<VmId> vm_order_;  // creation order for determinism
  std::uint32_t next_vm_{1};
  std::uint32_t next_slot_{1};
};

}  // namespace rill::cluster
