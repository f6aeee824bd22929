//! Virtual-machine placement and checkpoint bookkeeping.
//!
//! The prototype "host\[s\] all workloads in virtual machines (VM) on Xen…
//! Each physical machine hosts 2 VMs" and its server-control API covers
//! "frequency scaling, server power state control, and virtual machine
//! migration" (§4–5). [`VmPool`] tracks where each VM instance lives,
//! which are checkpointed to disk, and how many checkpoint/restore/
//! migration operations the control plane has performed — the activity
//! behind Table 6's "VM Ctrl. Times" and the 5-minute management overhead.

/// Lifecycle state of one VM instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// Running on the machine with the given index.
    Running {
        /// Index of the hosting physical machine.
        machine: usize,
    },
    /// State saved to stable storage; no machine assigned.
    Checkpointed,
}

/// One VM instance with its operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vm {
    state: VmState,
    checkpoints: u64,
    restores: u64,
    migrations: u64,
}

impl Vm {
    fn new() -> Self {
        Self {
            state: VmState::Checkpointed,
            checkpoints: 0,
            restores: 0,
            migrations: 0,
        }
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> VmState {
        self.state
    }

    /// Times this VM's state was saved.
    #[must_use]
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Times this VM was restored from a checkpoint.
    #[must_use]
    pub fn restores(&self) -> u64 {
        self.restores
    }

    /// Times this VM moved between machines while running.
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.migrations
    }
}

/// The pool of VM instances over a homogeneous machine set.
///
/// # Examples
///
/// ```
/// use ins_cluster::vm::VmPool;
///
/// let mut pool = VmPool::new(8, 2);
/// // Four machines up, target six VMs: fills machines 0–2.
/// pool.reconcile(6, &[true, true, true, true]);
/// assert_eq!(pool.running(), 6);
/// // Machine 0 lost: its two VMs checkpoint, then repack onto machine 3.
/// pool.reconcile(6, &[false, true, true, true]);
/// assert_eq!(pool.running(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VmPool {
    vms: Vec<Vm>,
    slots_per_machine: u32,
}

impl VmPool {
    /// Creates a pool of `total` VM instances, all checkpointed, over
    /// machines hosting `slots_per_machine` each.
    ///
    /// # Panics
    ///
    /// Panics if `slots_per_machine` is zero.
    #[must_use]
    pub fn new(total: u32, slots_per_machine: u32) -> Self {
        assert!(slots_per_machine > 0, "machines must host at least one VM");
        Self {
            vms: (0..total).map(|_| Vm::new()).collect(),
            slots_per_machine,
        }
    }

    /// The VM instances.
    #[must_use]
    pub fn vms(&self) -> &[Vm] {
        &self.vms
    }

    /// VMs currently running.
    #[must_use]
    pub fn running(&self) -> u32 {
        self.vms
            .iter()
            .filter(|v| matches!(v.state, VmState::Running { .. }))
            .count() as u32
    }

    /// Total checkpoint operations across the pool.
    #[must_use]
    pub fn total_checkpoints(&self) -> u64 {
        self.vms.iter().map(|v| v.checkpoints).sum()
    }

    /// Total restore operations across the pool.
    #[must_use]
    pub fn total_restores(&self) -> u64 {
        self.vms.iter().map(|v| v.restores).sum()
    }

    /// Total live migrations across the pool.
    #[must_use]
    pub fn total_migrations(&self) -> u64 {
        self.vms.iter().map(|v| v.migrations).sum()
    }

    /// Reconciles the pool against a VM target and the set of machines
    /// currently serving: VMs on dead machines checkpoint; surplus VMs
    /// checkpoint; deficit restores onto free slots; stranded VMs migrate
    /// toward the lowest-index machines (stable packing).
    ///
    /// Returns the number of control operations performed.
    pub fn reconcile(&mut self, target: u32, machines_on: &[bool]) -> u64 {
        let mut ops = 0;

        // 1. Checkpoint VMs whose machine went away.
        for vm in &mut self.vms {
            if let VmState::Running { machine } = vm.state {
                if machine >= machines_on.len() || !machines_on[machine] {
                    vm.state = VmState::Checkpointed;
                    vm.checkpoints += 1;
                    ops += 1;
                }
            }
        }

        // 2. Checkpoint surplus VMs beyond the target (highest ids first,
        //    so lower instances are the stable long-runners).
        let mut running = self.running();
        for vm in self.vms.iter_mut().rev() {
            if running <= target {
                break;
            }
            if matches!(vm.state, VmState::Running { .. }) {
                vm.state = VmState::Checkpointed;
                vm.checkpoints += 1;
                ops += 1;
                running -= 1;
            }
        }

        // 3. Compute per-machine occupancy.
        let mut load = vec![0u32; machines_on.len()];
        for vm in &self.vms {
            if let VmState::Running { machine } = vm.state {
                load[machine] += 1;
            }
        }

        // 4. Migrate VMs off overloaded machines (can happen after slot
        //    reconfiguration) and pack toward low indices.
        for vm in &mut self.vms {
            if let VmState::Running { machine } = vm.state {
                if load[machine] > self.slots_per_machine {
                    if let Some(dest) = Self::free_slot(&load, machines_on, self.slots_per_machine)
                    {
                        load[machine] -= 1;
                        load[dest] += 1;
                        vm.state = VmState::Running { machine: dest };
                        vm.migrations += 1;
                        ops += 1;
                    }
                }
            }
        }

        // 5. Restore checkpointed VMs while below target and slots exist.
        let mut running = self.running();
        for vm in &mut self.vms {
            if running >= target {
                break;
            }
            if vm.state == VmState::Checkpointed {
                if let Some(dest) = Self::free_slot(&load, machines_on, self.slots_per_machine) {
                    load[dest] += 1;
                    vm.state = VmState::Running { machine: dest };
                    vm.restores += 1;
                    ops += 1;
                    running += 1;
                } else {
                    break;
                }
            }
        }
        ops
    }

    fn free_slot(load: &[u32], machines_on: &[bool], slots: u32) -> Option<usize> {
        (0..machines_on.len()).find(|&m| machines_on[m] && load[m] < slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_machines_in_order() {
        let mut pool = VmPool::new(8, 2);
        let ops = pool.reconcile(5, &[true, true, true, true]);
        assert_eq!(pool.running(), 5);
        assert_eq!(ops, 5, "five restores");
        // Machines 0 and 1 full, machine 2 has one.
        let on_machine = |m: usize| {
            pool.vms()
                .iter()
                .filter(|v| v.state() == VmState::Running { machine: m })
                .count()
        };
        assert_eq!(on_machine(0), 2);
        assert_eq!(on_machine(1), 2);
        assert_eq!(on_machine(2), 1);
        assert_eq!(on_machine(3), 0);
    }

    #[test]
    fn machine_loss_checkpoints_then_repacks() {
        let mut pool = VmPool::new(8, 2);
        pool.reconcile(6, &[true, true, true, true]);
        let ops = pool.reconcile(6, &[false, true, true, true]);
        // Two checkpoints + two restores onto machine 3.
        assert_eq!(pool.running(), 6);
        assert!(ops >= 4);
        assert_eq!(pool.total_checkpoints(), 2);
        assert_eq!(pool.total_restores(), 8);
        assert!(pool
            .vms()
            .iter()
            .all(|v| v.state() != VmState::Running { machine: 0 }));
    }

    #[test]
    fn scale_down_checkpoints_highest_instances() {
        let mut pool = VmPool::new(8, 2);
        pool.reconcile(8, &[true, true, true, true]);
        pool.reconcile(4, &[true, true, true, true]);
        assert_eq!(pool.running(), 4);
        // The first four instances keep running (stable long-runners).
        for vm in &pool.vms()[..4] {
            assert!(matches!(vm.state(), VmState::Running { .. }));
        }
        for vm in &pool.vms()[4..] {
            assert_eq!(vm.state(), VmState::Checkpointed);
        }
    }

    #[test]
    fn capacity_limits_respected() {
        let mut pool = VmPool::new(8, 2);
        // Only one machine up: at most 2 VMs run no matter the target.
        pool.reconcile(8, &[true, false, false, false]);
        assert_eq!(pool.running(), 2);
    }

    #[test]
    fn total_loss_checkpoints_everything() {
        let mut pool = VmPool::new(8, 2);
        pool.reconcile(8, &[true, true, true, true]);
        pool.reconcile(8, &[false, false, false, false]);
        assert_eq!(pool.running(), 0);
        assert_eq!(pool.total_checkpoints(), 8);
    }

    #[test]
    fn reconcile_is_idempotent() {
        let mut pool = VmPool::new(8, 2);
        pool.reconcile(6, &[true, true, true, true]);
        let before = pool.clone();
        let ops = pool.reconcile(6, &[true, true, true, true]);
        assert_eq!(ops, 0, "steady state must need no operations");
        assert_eq!(pool, before);
    }

    #[test]
    #[should_panic(expected = "machines must host at least one VM")]
    fn rejects_zero_slots() {
        let _ = VmPool::new(8, 0);
    }
}
