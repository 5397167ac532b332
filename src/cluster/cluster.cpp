#include "cluster/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rill::cluster {

VmId Cluster::provision(VmType type, std::string label) {
  const VmId id{next_vm_++};
  Vm vm;
  vm.id = id;
  vm.type = type;
  vm.label = label.empty() ? std::string(to_string(type)) + "-" +
                                 std::to_string(id.value)
                           : std::move(label);
  vm.provisioned_at = engine_.now();
  for (int c = 0; c < cores(type); ++c) {
    const SlotId sid{next_slot_++};
    slots_.emplace(sid, Slot{sid, id, std::nullopt});
    vm.slots.push_back(sid);
  }
  vm_order_.push_back(id);
  vms_.emplace(id, std::move(vm));
  return id;
}

std::vector<VmId> Cluster::provision_n(VmType type, int count,
                                       const std::string& label_prefix) {
  std::vector<VmId> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(provision(type, label_prefix + "-" + std::to_string(i)));
  }
  return out;
}

void Cluster::release(VmId id) {
  auto& vm = vms_.at(id);
  if (!vm.active()) throw std::logic_error("release: VM already released");
  for (SlotId s : vm.slots) {
    if (slots_.at(s).occupant.has_value()) {
      throw std::logic_error("release: VM " + vm.label + " has occupied slots");
    }
  }
  vm.released_at = engine_.now();
}

void Cluster::release_vms_not_in(const std::vector<VmId>& vms,
                                 const std::vector<VmId>& keep) {
  for (VmId v : vms) {
    if (std::find(keep.begin(), keep.end(), v) == keep.end() &&
        vms_.at(v).active()) {
      release(v);
    }
  }
}

const Vm& Cluster::vm(VmId id) const { return vms_.at(id); }
const Slot& Cluster::slot(SlotId id) const { return slots_.at(id); }

void Cluster::occupy(SlotId slot, InstanceId instance) {
  auto& s = slots_.at(slot);
  if (s.occupant.has_value()) {
    throw std::logic_error("occupy: slot already taken");
  }
  s.occupant = instance;
}

void Cluster::vacate(SlotId slot) {
  auto& s = slots_.at(slot);
  if (!s.occupant.has_value()) {
    throw std::logic_error("vacate: slot already empty");
  }
  s.occupant.reset();
}

std::vector<SlotId> Cluster::vacant_slots() const {
  std::vector<SlotId> out;
  for (VmId vid : vm_order_) {
    const Vm& vm = vms_.at(vid);
    if (!vm.active()) continue;
    for (SlotId s : vm.slots) {
      if (!slots_.at(s).occupant.has_value()) out.push_back(s);
    }
  }
  return out;
}

std::vector<SlotId> Cluster::vacant_slots_on(
    const std::vector<VmId>& vms) const {
  std::vector<SlotId> out;
  for (VmId vid : vms) {
    const Vm& vm = vms_.at(vid);
    if (!vm.active()) continue;
    for (SlotId s : vm.slots) {
      if (!slots_.at(s).occupant.has_value()) out.push_back(s);
    }
  }
  return out;
}

std::vector<VmId> Cluster::active_vms() const {
  std::vector<VmId> out;
  for (VmId vid : vm_order_) {
    if (vms_.at(vid).active()) out.push_back(vid);
  }
  return out;
}

double Cluster::billed_cents() const {
  double total = 0.0;
  for (VmId vid : vm_order_) {
    const Vm& vm = vms_.at(vid);
    const SimTime end = vm.released_at.value_or(engine_.now());
    const double minutes =
        std::ceil(time::to_sec(static_cast<SimDuration>(end - vm.provisioned_at)) / 60.0);
    total += minutes * cents_per_hour(vm.type) / 60.0;
  }
  return total;
}

double Cluster::utilisation(const std::vector<VmId>& vms) const {
  std::size_t total = 0;
  std::size_t used = 0;
  for (VmId vid : vms) {
    const Vm& vm = vms_.at(vid);
    total += vm.slots.size();
    used += static_cast<std::size_t>(
        std::count_if(vm.slots.begin(), vm.slots.end(), [&](SlotId s) {
          return slots_.at(s).occupant.has_value();
        }));
  }
  return total == 0 ? 0.0 : static_cast<double>(used) / static_cast<double>(total);
}

}  // namespace rill::cluster
