package experiments

import (
	"flowvalve/internal/dataplane"
	"flowvalve/internal/nic"
	"flowvalve/internal/packet"
)

// DeliveredCounter counts wire deliveries after a warm-up window. It is
// the shared measurement instrument of the throughput harnesses (Fig 13)
// and cmd/fvbench: every backend's Mpps figure comes from the same
// counter fed by the same callback, never from backend-private stats.
type DeliveredCounter struct {
	// WarmNs is the warm-up horizon; deliveries before it are ignored.
	WarmNs    int64
	delivered uint64
}

// Callbacks returns the dataplane callbacks that feed the counter (drops
// are not counted — a dropped packet is the absence of throughput).
func (d *DeliveredCounter) Callbacks() dataplane.Callbacks {
	return dataplane.Callbacks{
		OnDeliver: func(p *packet.Packet) {
			if p.EgressAt >= d.WarmNs {
				d.delivered++
			}
		},
	}
}

// Delivered returns the packets counted since the warm-up horizon.
func (d *DeliveredCounter) Delivered() uint64 { return d.delivered }

// Pps converts the count to packets/second over the measurement window.
func (d *DeliveredCounter) Pps(windowNs int64) float64 {
	if windowNs <= 0 {
		return 0
	}
	return float64(d.delivered) / (float64(windowNs) / 1e9)
}

// recycling wraps cb so that every packet goes back to alloc at the end
// of its last callback — the dataplane.Callbacks lifetime rule. A nil
// field of cb becomes a callback that only frees.
func recycling(alloc *packet.Alloc, cb dataplane.Callbacks) dataplane.Callbacks {
	deliver, drop := cb.OnDeliver, cb.OnDrop
	return dataplane.Callbacks{
		OnDeliver: func(p *packet.Packet) {
			if deliver != nil {
				deliver(p)
			}
			alloc.Free(p)
		},
		OnDrop: func(p *packet.Packet) {
			if drop != nil {
				drop(p)
			}
			alloc.Free(p)
		},
	}
}

// nicCallbacks adapts dataplane callbacks to the NIC model's, whose
// OnDrop also carries the drop reason. cb.OnDrop must be set (recycling
// always sets it).
func nicCallbacks(cb dataplane.Callbacks) nic.Callbacks {
	drop := cb.OnDrop
	return nic.Callbacks{
		OnDeliver: cb.OnDeliver,
		OnDrop:    func(p *packet.Packet, _ nic.DropReason) { drop(p) },
	}
}
