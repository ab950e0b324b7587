package experiments

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"flowvalve/internal/dataplane"
	"flowvalve/internal/packet"
	"flowvalve/internal/pifo"
	"flowvalve/internal/sim"
	"flowvalve/internal/telemetry"
	"flowvalve/internal/trafficgen"
)

// AccuracyScenario measures how close each approximate scheduler gets to
// the exact-PIFO oracle: every pifo-family backend is driven with the
// identical seeded bursty workload under the same rank policy, and the
// lab reports rank inversions, admission behaviour, per-app throughput,
// and the enforcement error of each backend's bandwidth split against
// the oracle's. This is the programmable-scheduling counterpart of the
// figure experiments — fidelity versus structure cost, on one trace.
type AccuracyScenario struct {
	// DurationNs is the source active period (default 20ms); the run
	// continues for another DurationNs so queues drain fully.
	DurationNs int64
	// SizeBytes is the frame size (default 1000).
	SizeBytes int
	// Apps is the number of competing senders, one rank-policy slot
	// each (default 4).
	Apps int
	// Seed drives the per-app on/off sources (default 1).
	Seed uint64
	// LinkRateBps is the egress wire (default 1 Gbps). Aggregate
	// offered load is ~1.3× this, so admission filters are always
	// exercised.
	LinkRateBps float64
	// CapPkts bounds each backend's structure (default 256).
	CapPkts int
	// Policy is the shared rank function (default wfq).
	Policy string
	// Backends lists the registry names to compare (default: the whole
	// family). The exact-PIFO oracle is always included — enforcement
	// error is measured against it.
	Backends []string
	// Telemetry, when set, receives every backend's metric families
	// (distinguished by the scheduler label).
	Telemetry *telemetry.Registry
}

// AccuracyRow is one backend's scorecard.
type AccuracyRow struct {
	Backend string
	Doc     string

	Delivered uint64
	Dropped   uint64
	// Inversions counts dequeues that overtook a better-ranked
	// co-resident packet (zero for the oracle by construction).
	Inversions uint64
	// RankDrops/FullDrops/EvictDrops split the drops by admission cause.
	RankDrops, FullDrops, EvictDrops uint64
	// PushUps/PushDowns count SP-PIFO bound adaptations.
	PushUps, PushDowns uint64
	// AppBps is each app's delivered goodput in bits/s of wire time.
	AppBps []float64
	// EnforcementErr is the mean absolute difference between this
	// backend's per-app bandwidth shares and the oracle's, in share
	// points (0 = identical split, 1 = completely disjoint).
	EnforcementErr float64
	// MeanLatencyUs is the mean queueing delay of delivered packets.
	MeanLatencyUs float64
	// TraceDigest fingerprints the full delivery trace (flow, seq,
	// rank, egress instant per packet) — the determinism hook.
	TraceDigest uint64
}

// AccuracyResult is the lab report, rows ranked by inversion count
// against the exact-PIFO oracle (the oracle first).
type AccuracyResult struct {
	Scenario AccuracyScenario
	Rows     []AccuracyRow
}

func (sc *AccuracyScenario) defaults() error {
	if sc.DurationNs <= 0 {
		sc.DurationNs = 20e6
	}
	if sc.SizeBytes <= 0 {
		sc.SizeBytes = 1000
	}
	if sc.Apps <= 0 {
		sc.Apps = 4
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.LinkRateBps <= 0 {
		sc.LinkRateBps = 1e9
	}
	if sc.CapPkts <= 0 {
		sc.CapPkts = 256
	}
	if sc.Policy == "" {
		sc.Policy = pifo.PolicyWFQ
	}
	if len(sc.Backends) == 0 {
		sc.Backends = pifo.BackendNames()
	}
	for _, name := range sc.Backends {
		if !pifo.IsBackend(name) {
			return fmt.Errorf("experiments: unknown pifo backend %q (want %s)", name, pifo.BackendList())
		}
	}
	oracle := false
	for _, name := range sc.Backends {
		if name == pifo.BackendPIFO {
			oracle = true
		}
	}
	if !oracle {
		sc.Backends = append([]string{pifo.BackendPIFO}, sc.Backends...)
	}
	return nil
}

// RunAccuracy executes the lab: one independent seeded DES run per
// backend over the identical workload, then cross-backend scoring
// against the oracle row.
func RunAccuracy(sc AccuracyScenario) (*AccuracyResult, error) {
	if err := sc.defaults(); err != nil {
		return nil, err
	}
	docs := make(map[string]string, len(pifo.Backends()))
	for _, spec := range pifo.Backends() {
		docs[spec.Name] = spec.Doc
	}
	res := &AccuracyResult{Scenario: sc}
	for _, name := range sc.Backends {
		row, err := runAccuracyBackend(&sc, name)
		if err != nil {
			return nil, fmt.Errorf("experiments: accuracy %s: %w", name, err)
		}
		row.Doc = docs[name]
		res.Rows = append(res.Rows, *row)
	}

	// Enforcement error: distance of each backend's bandwidth split
	// from the oracle's (row 0 — the oracle is always first here; rows
	// are re-ranked below).
	oracle := res.Rows[0]
	oracleShare := shares(oracle.AppBps)
	for i := range res.Rows {
		s := shares(res.Rows[i].AppBps)
		var sum float64
		for a := range s {
			d := s[a] - oracleShare[a]
			if d < 0 {
				d = -d
			}
			sum += d
		}
		res.Rows[i].EnforcementErr = sum / float64(len(s))
	}

	// Rank by inversion count against the oracle; registry order breaks
	// ties deterministically.
	sort.SliceStable(res.Rows, func(i, j int) bool {
		return res.Rows[i].Inversions < res.Rows[j].Inversions
	})
	return res, nil
}

// runAccuracyBackend executes the shared workload against one backend.
func runAccuracyBackend(sc *AccuracyScenario, backend string) (*AccuracyRow, error) {
	eng := sim.New()
	pol, err := pifo.NewPolicy(sc.Policy, sc.Apps, sc.LinkRateBps)
	if err != nil {
		return nil, err
	}
	row := &AccuracyRow{Backend: backend, AppBps: make([]float64, sc.Apps)}
	appBytes := make([]uint64, sc.Apps)
	digest := fnv.New64a()
	var latSumNs, latN int64
	cfg := pifo.Config{
		Backend:     backend,
		LinkRateBps: sc.LinkRateBps,
		CapPkts:     sc.CapPkts,
		OnDequeue: func(p *packet.Packet, r pifo.Rank) {
			appBytes[int(p.App)%sc.Apps] += uint64(p.WireBytes())
			latSumNs += p.EgressAt - p.SentAt
			latN++
			var buf [40]byte
			putDigest(buf[:], uint64(p.Flow), uint64(p.Seq), uint64(r), uint64(p.EgressAt), p.ID)
			digest.Write(buf[:])
		},
	}
	alloc := &packet.Alloc{}
	q, err := pifo.NewQdisc(eng, cfg, pol, recycling(alloc, dataplane.Callbacks{}))
	if err != nil {
		return nil, err
	}
	if sc.Telemetry != nil {
		q.AttachTelemetry(sc.Telemetry)
	}

	for a := 0; a < sc.Apps; a++ {
		// Each app peaks at 0.65× the link with 50% duty: the aggregate
		// offered load is ~1.3× capacity for Apps=4, forcing the
		// admission filters to choose.
		peak := 2.6 * sc.LinkRateBps / float64(sc.Apps)
		_, err := trafficgen.NewOnOff(eng, alloc, packet.FlowID(a), packet.AppID(a),
			sc.SizeBytes, peak, 200_000, 200_000, 0, sc.DurationNs,
			sc.Seed+uint64(a)*1_000_003, q.Enqueue)
		if err != nil {
			return nil, err
		}
	}
	eng.RunUntil(2 * sc.DurationNs)

	st := q.QdiscStats()
	qs := q.QueueStats()
	row.Delivered = st.Delivered
	row.Dropped = st.Dropped
	row.Inversions = q.Inversions()
	row.RankDrops, row.FullDrops, row.EvictDrops = qs.RankDrops, qs.FullDrops, qs.EvictDrops
	row.PushUps, row.PushDowns = qs.PushUps, qs.PushDowns
	for a := range appBytes {
		row.AppBps[a] = float64(appBytes[a]) * 8 / (float64(sc.DurationNs) / 1e9)
	}
	if latN > 0 {
		row.MeanLatencyUs = float64(latSumNs) / float64(latN) / 1e3
	}
	row.TraceDigest = digest.Sum64()
	return row, nil
}

// putDigest serializes five words little-endian into buf (len ≥ 40).
func putDigest(buf []byte, words ...uint64) {
	for i, w := range words {
		for b := 0; b < 8; b++ {
			buf[i*8+b] = byte(w >> (8 * b))
		}
	}
}

// shares normalizes a bandwidth vector to fractions of its sum.
func shares(bps []float64) []float64 {
	var total float64
	for _, v := range bps {
		total += v
	}
	out := make([]float64, len(bps))
	if total == 0 {
		return out
	}
	for i, v := range bps {
		out[i] = v / total
	}
	return out
}

// FormatAccuracy renders the lab report for the CLI.
func FormatAccuracy(r *AccuracyResult) string {
	sc := r.Scenario
	var sb strings.Builder
	fmt.Fprintf(&sb, "scheduler-accuracy lab — policy=%s link=%.1fGbps apps=%d size=%dB cap=%dpkts duration=%dms seed=%d\n",
		sc.Policy, sc.LinkRateBps/1e9, sc.Apps, sc.SizeBytes, sc.CapPkts, sc.DurationNs/1e6, sc.Seed)
	sb.WriteString("rows ranked by rank-inversion count against the exact-PIFO oracle\n")
	fmt.Fprintf(&sb, "%-8s %10s %9s %11s %12s %9s %9s  %s\n",
		"backend", "delivered", "dropped", "inversions", "adaptations", "enf.err", "lat(µs)", "per-app Mbps")
	for _, row := range r.Rows {
		apps := make([]string, len(row.AppBps))
		for i, bps := range row.AppBps {
			apps[i] = fmt.Sprintf("%.0f", bps/1e6)
		}
		fmt.Fprintf(&sb, "%-8s %10d %9d %11d %7d/%-4d %9.4f %9.1f  [%s]\n",
			row.Backend, row.Delivered, row.Dropped, row.Inversions,
			row.PushUps, row.PushDowns, row.EnforcementErr, row.MeanLatencyUs,
			strings.Join(apps, " "))
	}
	return sb.String()
}
