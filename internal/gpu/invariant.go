package gpu

import "fmt"

// Invariant hooks for the stress harness (internal/harness). Device
// satisfies the inv.Checker contract structurally.

// Inflight returns the number of tasks currently holding one of the
// pipeline's slot buffer sets.
func (d *Device) Inflight() int64 { return d.inflight.Load() }

// InvariantName implements the inv.Checker contract.
func (d *Device) InvariantName() string { return "gpu.device" }

// CheckInvariants verifies the pipeline's slot accounting:
//
//   - the number of in-flight tasks stays within [0, PipelineDepth]
//     (submit acquires a slot before incrementing, copyout decrements
//     before returning it, so a violation means a slot leaked or was
//     double-freed);
//   - the completed-task counter is monotonic. The checker mutex
//     serialises callers so the watermark comparison cannot misfire on
//     stale loads.
func (d *Device) CheckInvariants() error {
	fly := d.inflight.Load()
	if fly < 0 || fly > int64(d.PipelineDepth()) {
		return fmt.Errorf("inflight %d outside [0,%d]", fly, d.PipelineDepth())
	}
	d.chk.mu.Lock()
	defer d.chk.mu.Unlock()
	done := d.tasksDone.Load()
	if done < d.chk.done {
		return fmt.Errorf("tasksDone moved backwards: %d -> %d", d.chk.done, done)
	}
	d.chk.done = done
	return nil
}
