package sweep

import (
	"slices"

	"safespec/internal/bpred"
	"safespec/internal/cache"
	"safespec/internal/pipeline"
	"safespec/internal/shadow"
	"safespec/internal/tlb"
)

// A job crosses the fleet in a lease, in a submitted matrix and in a
// journal frame, and is hashed for the result cache: about seventy config
// fields each time. The walks below give the result codec its field list.

func walkJob(c fieldCodec, j *Job) {
	c.text("Bench", &j.Bench)
	c.text("Mode", &j.Mode)
	c.signed("Seed", &j.Seed)
	c.begin("Config")
	walkPipelineConfig(c, "Pipeline", &j.Config.Pipeline)
	c.flag("SampleOccupancy", &j.Config.SampleOccupancy)
	c.end()
}

func walkPipelineConfig(c fieldCodec, key string, p *pipeline.Config) {
	c.begin(key)
	c.integer("FetchWidth", &p.FetchWidth)
	c.integer("DispatchWidth", &p.DispatchWidth)
	c.integer("IssueWidth", &p.IssueWidth)
	c.integer("CommitWidth", &p.CommitWidth)
	c.integer("ROBSize", &p.ROBSize)
	c.integer("IQSize", &p.IQSize)
	c.integer("LDQSize", &p.LDQSize)
	c.integer("STQSize", &p.STQSize)
	c.integer("MaxBranchTags", &p.MaxBranchTags)
	c.integer("RedirectPenalty", &p.RedirectPenalty)
	c.integer("WalkerLatency", &p.WalkerLatency)
	c.integer("StoreForwardLatency", &p.StoreForwardLatency)
	c.optInteger("Threads", &p.Threads)
	c.small("Mode", (*uint8)(&p.Mode))
	c.flag("FaultsReturnData", &p.FaultsReturnData)
	walkBpredConfig(c, "Bpred", &p.Bpred)
	walkHierarchyConfig(c, "Hier", &p.Hier)
	walkTLBConfig(c, "ITLB", &p.ITLB)
	walkTLBConfig(c, "DTLB", &p.DTLB)
	walkPolicy(c, "ShadowD", &p.ShadowD)
	walkPolicy(c, "ShadowI", &p.ShadowI)
	walkPolicy(c, "ShadowDTLB", &p.ShadowDTLB)
	walkPolicy(c, "ShadowITLB", &p.ShadowITLB)
	c.counter("MaxCycles", &p.MaxCycles)
	c.counter("MaxInstrs", &p.MaxInstrs)
	c.flag("DetectAnomalies", &p.DetectAnomalies)
	c.end()
}

func walkBpredConfig(c fieldCodec, key string, p *bpred.Config) {
	c.begin(key)
	c.integer("GshareBits", &p.GshareBits)
	c.integer("HistBits", &p.HistBits)
	c.integer("BTBEntries", &p.BTBEntries)
	c.integer("BTBTagBits", &p.BTBTagBits)
	c.integer("RASEntries", &p.RASEntries)
	c.end()
}

func walkHierarchyConfig(c fieldCodec, key string, p *cache.HierarchyConfig) {
	c.begin(key)
	walkCacheConfig(c, "L1I", &p.L1I)
	walkCacheConfig(c, "L1D", &p.L1D)
	walkCacheConfig(c, "L2", &p.L2)
	walkCacheConfig(c, "L3", &p.L3)
	c.integer("MemLatency", &p.MemLatency)
	c.end()
}

func walkCacheConfig(c fieldCodec, key string, p *cache.Config) {
	c.begin(key)
	c.text("Name", &p.Name)
	c.integer("SizeBytes", &p.SizeBytes)
	c.integer("Ways", &p.Ways)
	c.integer("HitLatency", &p.HitLatency)
	c.end()
}

func walkTLBConfig(c fieldCodec, key string, p *tlb.Config) {
	c.begin(key)
	c.text("Name", &p.Name)
	c.integer("Entries", &p.Entries)
	c.integer("Ways", &p.Ways)
	c.integer("HitLatency", &p.HitLatency)
	c.end()
}

func walkPolicy(c fieldCodec, key string, p *shadow.Policy) {
	c.begin(key)
	c.text("Name", &p.Name)
	c.integer("Entries", &p.Entries)
	c.small("WhenFull", (*uint8)(&p.WhenFull))
	c.flag("Partitioned", &p.Partitioned)
	c.end()
}

// AppendJob appends j's JSON encoding to b, byte for byte as json.Marshal(j)
// writes it.
func AppendJob(b []byte, j *Job) []byte {
	e := encoder{b: append(b, '{'), first: true}
	walkJob(&e, j)
	return append(e.b, '}')
}

// AppendJobs appends the encoding of jobs to b, byte for byte as
// json.Marshal(jobs) writes it.
func AppendJobs(b []byte, jobs []Job) []byte {
	if jobs == nil {
		return append(b, "null"...)
	}
	b = append(slices.Grow(b, 2+len(jobs)*1280), '[') // a Table I job is about 1.2 KB
	for i := range jobs {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendJob(b, &jobs[i])
	}
	return append(b, ']')
}

// Job reads an encoded Job.
func (s *Scan) Job() Job {
	var j Job
	s.object()
	walkJob(s, &j)
	s.end()
	return j
}

// Jobs reads an array of encoded Jobs or null.
func (s *Scan) Jobs() []Job { return scanArray(s, s.Job) }
