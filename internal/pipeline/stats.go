package pipeline

import (
	"safespec/internal/bpred"
	"safespec/internal/cache"
	"safespec/internal/shadow"
	"safespec/internal/stats"
	"safespec/internal/tlb"
)

// ThreadStats is one hardware thread's share of the retirement-side
// counters. For SMT runs Stats.PerThread carries one per thread; the
// aggregate Stats fields always hold the core-wide totals.
type ThreadStats struct {
	Committed       uint64
	CommittedLoads  uint64
	CommittedStores uint64
	Dispatched      uint64
	Squashed        uint64
	Mispredicts     uint64
	Faults          uint64
	Traps           uint64
}

// add accumulates o into s.
func (s *ThreadStats) add(o ThreadStats) {
	s.Committed += o.Committed
	s.CommittedLoads += o.CommittedLoads
	s.CommittedStores += o.CommittedStores
	s.Dispatched += o.Dispatched
	s.Squashed += o.Squashed
	s.Mispredicts += o.Mispredicts
	s.Faults += o.Faults
	s.Traps += o.Traps
}

// Stats collects everything the paper's figures need from one run.
type Stats struct {
	// Cycles is the total simulated cycles.
	Cycles uint64
	// Committed counts architecturally retired instructions.
	Committed uint64
	// CommittedLoads / CommittedStores break down retirement.
	CommittedLoads, CommittedStores uint64
	// Dispatched counts instructions entering the ROB (committed + squashed).
	Dispatched uint64
	// Squashed counts instructions annulled by mispredicts or traps.
	Squashed uint64
	// Mispredicts counts execute-time branch redirects.
	Mispredicts uint64
	// Faults counts faults raised at commit.
	Faults uint64
	// Traps counts vectored transfers to the trap handler.
	Traps uint64

	// Demand data-read classification, counted at access time and including
	// wrong-path accesses (the paper's Figure 12/13 methodology).
	DReads          uint64
	DReadL1Hits     uint64
	DReadShadowHits uint64
	DReadMisses     uint64

	// Instruction-line fetch classification (Figures 14/15).
	IFetches         uint64
	IFetchL1Hits     uint64
	IFetchShadowHits uint64
	IFetchMisses     uint64

	// StoreForwards counts loads satisfied by store-to-load forwarding.
	StoreForwards uint64

	// Snapshots of the subsystem statistics, filled at the end of Run.
	L1I, L1D, L2, L3 cache.Stats
	ITLB, DTLB       tlb.Stats
	Bpred            bpred.Stats
	ShD, ShI         shadow.Stats
	ShDTLB, ShITLB   shadow.Stats

	// Occupancy histograms (non-nil only when sampling was enabled). Under
	// SMT these aggregate every thread's private shadow structures.
	OccD, OccI, OccDTLB, OccITLB *stats.Histogram

	// PerThread breaks the retirement counters down by hardware thread.
	// It is nil for single-thread runs so their serialized form — and with
	// it the sweep result-cache keys and golden JSONL — is unchanged from
	// before SMT existed.
	PerThread []ThreadStats `json:",omitempty"`
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 { return stats.Rate(s.Committed, s.Cycles) }

// DReadMissRate returns the Figure 12 metric: demand-read misses over all
// demand reads, where shadow hits count as hits.
func (s *Stats) DReadMissRate() float64 { return stats.Rate(s.DReadMisses, s.DReads) }

// DShadowHitShare returns the Figure 13 metric: the fraction of d-side hits
// that were serviced by the shadow d-cache.
func (s *Stats) DShadowHitShare() float64 {
	return stats.Rate(s.DReadShadowHits, s.DReadShadowHits+s.DReadL1Hits)
}

// IFetchMissRate returns the Figure 14 metric.
func (s *Stats) IFetchMissRate() float64 { return stats.Rate(s.IFetchMisses, s.IFetches) }

// IShadowHitShare returns the Figure 15 metric.
func (s *Stats) IShadowHitShare() float64 {
	return stats.Rate(s.IFetchShadowHits, s.IFetchShadowHits+s.IFetchL1Hits)
}

// committed returns the instructions retired so far on every thread.
func (c *CPU) committed() uint64 {
	var n uint64
	for i := range c.ths {
		n += c.ths[i].st.Committed
	}
	return n
}

// finalizeStats snapshots subsystem counters into St. Shared structures
// (caches, TLBs) snapshot directly; per-thread state (retirement counters,
// predictor views, shadow structures, occupancy histograms) is summed
// across threads, however many there are.
func (c *CPU) finalizeStats() {
	c.St.L1I = c.ms.Hier.L1I.Stats
	c.St.L1D = c.ms.Hier.L1D.Stats
	c.St.L2 = c.ms.Hier.L2.Stats
	c.St.L3 = c.ms.Hier.L3.Stats
	c.St.ITLB = c.ms.ITLB.Stats
	c.St.DTLB = c.ms.DTLB.Stats
	var ret ThreadStats
	c.St.Bpred = bpred.Stats{}
	c.St.ShD, c.St.ShI = shadow.Stats{}, shadow.Stats{}
	c.St.ShDTLB, c.St.ShITLB = shadow.Stats{}, shadow.Stats{}
	for i := range c.ths {
		t := &c.ths[i]
		ret.add(t.st)
		c.St.Bpred.Add(t.bp.Stats)
		if c.cfg.Mode.SafeSpec() {
			c.St.ShD.Add(t.ms.ShD.Stats)
			c.St.ShI.Add(t.ms.ShI.Stats)
			c.St.ShDTLB.Add(t.ms.ShDTLB.Stats)
			c.St.ShITLB.Add(t.ms.ShITLB.Stats)
		}
	}
	c.St.Committed, c.St.CommittedLoads = ret.Committed, ret.CommittedLoads
	c.St.CommittedStores, c.St.Dispatched = ret.CommittedStores, ret.Dispatched
	c.St.Squashed, c.St.Mispredicts = ret.Squashed, ret.Mispredicts
	c.St.Faults, c.St.Traps = ret.Faults, ret.Traps
	if c.cfg.Mode.SafeSpec() && c.sampleOcc {
		// Aggregated histograms allocate at finalize time only — never on
		// the per-cycle path.
		c.St.OccD = mergeOcc(c.ths, func(ms *MemSystem) *shadow.Structure { return ms.ShD })
		c.St.OccI = mergeOcc(c.ths, func(ms *MemSystem) *shadow.Structure { return ms.ShI })
		c.St.OccDTLB = mergeOcc(c.ths, func(ms *MemSystem) *shadow.Structure { return ms.ShDTLB })
		c.St.OccITLB = mergeOcc(c.ths, func(ms *MemSystem) *shadow.Structure { return ms.ShITLB })
	}
	if len(c.ths) > 1 {
		c.St.PerThread = make([]ThreadStats, len(c.ths))
		for i := range c.ths {
			c.St.PerThread[i] = c.ths[i].st
		}
	}
}

// mergeOcc sums the occupancy histograms of one shadow structure kind
// across all threads.
func mergeOcc(ths []thread, pick func(*MemSystem) *shadow.Structure) *stats.Histogram {
	var cap int
	for i := range ths {
		if s := pick(ths[i].ms); s != nil {
			cap = s.Policy().Entries
		}
	}
	h := stats.NewHistogram(cap)
	for i := range ths {
		if s := pick(ths[i].ms); s != nil {
			h.Merge(s.Occupancy)
		}
	}
	return h
}
