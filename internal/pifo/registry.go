package pifo

import (
	"fmt"
	"strings"

	"flowvalve/internal/packet"
)

// Backend registry names.
const (
	BackendPIFO     = "pifo"
	BackendSPPIFO   = "sppifo"
	BackendAIFO     = "aifo"
	BackendRIFO     = "rifo"
	BackendEiffel   = "eiffel"
	BackendTaildrop = "fvrank"
)

// Spec describes one registered backend. The registry is the single
// source of truth for the family: command help strings, builder
// switches, and the experiments accuracy lab all derive their backend
// lists from here instead of repeating them.
type Spec struct {
	// Name is the flag/registry identifier.
	Name string
	// Doc is a one-line description for help text and reports.
	Doc string
}

// Backends lists the scheduler family in registry (accuracy-report)
// order, the exact oracle first.
func Backends() []Spec {
	return []Spec{
		{BackendPIFO, "exact PIFO: binary min-heap, O(log n), ground-truth oracle"},
		{BackendSPPIFO, "SP-PIFO: strict-priority FIFO bank with push-up/push-down rank bounds"},
		{BackendAIFO, "AIFO: single FIFO, sliding-window quantile admission"},
		{BackendRIFO, "RIFO: single FIFO, windowed min/max range admission"},
		{BackendEiffel, "Eiffel: bucketed find-first-set queues, O(1) approximate PIFO"},
		{BackendTaildrop, "FlowValve tail drop as a rank function over one FIFO"},
	}
}

// BackendNames returns the registry names in order.
func BackendNames() []string {
	specs := Backends()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// BackendList returns the names joined for flag help text, e.g.
// "pifo | sppifo | aifo | rifo | eiffel | fvrank".
func BackendList() string {
	return strings.Join(BackendNames(), " | ")
}

// IsBackend reports whether name is a registered pifo-family backend.
func IsBackend(name string) bool {
	for _, s := range Backends() {
		if s.Name == name {
			return true
		}
	}
	return false
}

// Config parameterizes one backend instance. The zero value plus
// Defaults() gives a 1024-packet queue on a 40 Gbps wire with the
// published structure sizes (8 SP-PIFO bands, 256 Eiffel buckets,
// 64-packet AIFO/RIFO windows).
type Config struct {
	// Backend selects the queueing structure (see Backends).
	Backend string
	// LinkRateBps is the drain rate of the simulated wire.
	LinkRateBps float64
	// CapPkts bounds total queued packets across the structure.
	CapPkts int
	// Bands is the SP-PIFO queue-bank width.
	Bands int
	// Buckets is the Eiffel bucket count (rounded up to a power of two).
	Buckets int
	// BucketNs is the Eiffel bucket width in rank units.
	BucketNs int64
	// WindowPkts is the AIFO/RIFO sliding rank-window length.
	WindowPkts int
	// Headroom is AIFO's burst allowance θ in [0, 0.9].
	Headroom float64
	// HorizonNs is the fvrank (taildrop) admission horizon: packets
	// whose rank is more than this far in the future are dropped.
	HorizonNs int64
	// OnDequeue, when set, observes every delivered packet with its
	// admission rank in dequeue order — the accuracy lab's trace tap.
	OnDequeue func(p *packet.Packet, r Rank)
}

// Defaults fills unset fields.
func (c *Config) Defaults() {
	if c.Backend == "" {
		c.Backend = BackendPIFO
	}
	if c.LinkRateBps == 0 {
		c.LinkRateBps = 40e9
	}
	if c.CapPkts == 0 {
		c.CapPkts = 1024
	}
	if c.Bands == 0 {
		c.Bands = 8
	}
	if c.Buckets == 0 {
		c.Buckets = 256
	}
	if c.BucketNs == 0 {
		// ~one 1500B slot at 1 Gbps per bucket: coarse enough that the
		// default window spans several ms of deadline spread.
		c.BucketNs = 16384
	}
	if c.WindowPkts == 0 {
		c.WindowPkts = 64
	}
	if c.Headroom == 0 {
		c.Headroom = 0.1
	}
	if c.HorizonNs == 0 {
		c.HorizonNs = 1_000_000
	}
}

// validate rejects nonsensical configurations after Defaults.
func (c *Config) validate() error {
	if !IsBackend(c.Backend) {
		return fmt.Errorf("pifo: unknown backend %q (want %s)", c.Backend, BackendList())
	}
	if c.LinkRateBps <= 0 {
		return fmt.Errorf("pifo: non-positive link rate")
	}
	if c.CapPkts <= 0 || c.Bands <= 0 || c.Buckets <= 0 || c.WindowPkts <= 0 {
		return fmt.Errorf("pifo: non-positive structure size")
	}
	return nil
}

// newQueue builds the configured Qdisc-plane structure: the exact PIFO
// and Eiffel keep their own; every other backend is the admission
// kernel over per-band FIFOs.
func newQueue(cfg *Config) (rankQueue, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	switch cfg.Backend {
	case BackendPIFO:
		return newExactPIFO(cfg.CapPkts), nil
	case BackendEiffel:
		return newEiffel(cfg.CapPkts, cfg.Buckets, cfg.BucketNs), nil
	}
	return newBankQueue(cfg), nil
}
