package grid

import (
	"fmt"
	"html/template"
	"io"
	"sort"
	"time"

	"safespec/internal/sweep"
)

// statusSweep is one sweep's render model for the /status page: the
// live (bench, mode) completion table in the spirit of the paper's
// results tables, filling in as the fleet drains the matrix.
type statusSweep struct {
	ID        string
	Tenant    string
	Age       string
	Submitted int
	Completed int
	Done      bool
	// Spans renders the mean per-job span breakdown across the results
	// that carried a Timing ("" until one arrives).
	Spans   string
	Modes   []string       // column order: first appearance by job index
	Benches []string       // row order: first appearance by job index
	Cells   [][]statusCell // [bench][mode]; zero value for absent cells
}

// statusPage is the full render model.
type statusPage struct {
	Now    string
	Snap   ServerSnapshot
	Sweeps []statusSweep
}

var statusTmpl = template.Must(template.New("status").Parse(`<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<meta http-equiv="refresh" content="5">
<title>safespec-coordinator status</title>
<style>
body { font-family: ui-monospace, monospace; margin: 2em; color: #222; }
table { border-collapse: collapse; margin: 0.6em 0 1.4em; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.7em; text-align: right; }
th { background: #f0f0f0; }
td.b { text-align: left; }
td.full { background: #e4f3e4; }
.muted { color: #777; }
</style></head><body>
<h1>safespec-coordinator</h1>
<p class="muted">{{.Now}} &middot; auto-refreshes every 5s &middot; read-only</p>
<p>queue: {{.Snap.Pending}} pending &middot; {{.Snap.Leased}} leased &middot;
leases granted={{.Snap.Granted}} completed={{.Snap.Completed}}
requeued={{.Snap.Requeued}} failed={{.Snap.Failed}} &middot;
self-healing: incidents={{.Snap.Incidents}} quarantined={{.Snap.Quarantined}} &middot;
sweeps: {{.Snap.Sweeps}} open / {{.Snap.SweepsSubmitted}} lifetime
({{.Snap.SweepsAbandoned}} abandoned)</p>
{{if .Snap.Tenants}}<table>
<tr><th>tenant</th><th>requests</th></tr>
{{range .Snap.Tenants}}<tr><td class="b">{{.Name}}</td><td>{{.Requests}}</td></tr>
{{end}}</table>{{end}}
{{range .Sweeps}}
<h2>{{.ID}} <span class="muted">tenant {{.Tenant}} &middot; {{.Age}} old &middot;
{{.Completed}}/{{.Submitted}} jobs{{if .Done}} &middot; done{{end}}{{if .Spans}} &middot; mean spans: {{.Spans}}{{end}}</span></h2>
<table>
<tr><th>bench</th>{{range .Modes}}<th>{{.}}</th>{{end}}</tr>
{{$s := .}}{{range $bi, $b := .Benches}}<tr><td class="b">{{$b}}</td>
{{range $mi, $m := $s.Modes}}{{$c := index $s.Cells $bi $mi}}<td{{if $c.Full}} class="full"{{end}}>{{$c.Text}}</td>{{end}}</tr>
{{end}}</table>
{{else}}<p class="muted">no open sweeps</p>
{{end}}</body></html>
`))

// statusCell is one (bench, mode) cell: completed/total over the seed fan.
type statusCell struct {
	Text string
	Full bool
}

// WriteStatus renders the read-only live status page: coordinator queue
// accounting, per-tenant counters, and one (bench × mode) completion table
// per open sweep, each cell counting completed/total jobs (a seed fan puts
// several jobs in one cell). Served by OpsHandler on the operations port.
func (s *Server) WriteStatus(w io.Writer) {
	now := s.opts.now()
	page := statusPage{Now: now.UTC().Format(time.RFC3339), Snap: s.Stats()}
	s.mu.Lock()
	states := make([]*sweepState, 0, len(s.sweeps))
	for _, st := range s.sweeps {
		states = append(states, st)
	}
	sort.Slice(states, func(i, j int) bool {
		if !states[i].created.Equal(states[j].created) {
			return states[i].created.Before(states[j].created)
		}
		return states[i].id < states[j].id
	})

	for _, st := range states {
		sw := statusSweep{
			ID:        st.id,
			Age:       now.Sub(st.created).Round(time.Second).String(),
			Submitted: len(st.slots),
			Completed: len(st.log),
			Done:      len(st.slots) > 0 && len(st.log) == len(st.slots),
		}
		if st.tenant != nil {
			sw.Tenant = st.tenant.Name
		}
		if st.timed > 0 {
			n := int64(st.timed)
			mean := sweep.Timing{
				QueueNS:    st.spans.QueueNS / n,
				CacheNS:    st.spans.CacheNS / n,
				SimulateNS: st.spans.SimulateNS / n,
				ReportNS:   st.spans.ReportNS / n,
			}
			sw.Spans = mean.String()
		}
		indices := make([]int, 0, len(st.slots))
		for i := range st.slots {
			indices = append(indices, i)
		}
		sort.Ints(indices)
		type counts struct{ done, total int }
		cells := make(map[string]map[string]*counts)
		for _, i := range indices {
			t := st.slots[i]
			if cells[t.job.Bench] == nil {
				sw.Benches = append(sw.Benches, t.job.Bench)
				cells[t.job.Bench] = make(map[string]*counts)
			}
			if cells[t.job.Bench][t.job.Mode] == nil {
				cells[t.job.Bench][t.job.Mode] = &counts{}
			}
			c := cells[t.job.Bench][t.job.Mode]
			c.total++
			if t.logged {
				c.done++
			}
		}
		// Column order: first appearance across the whole matrix.
		seenMode := make(map[string]bool)
		for _, i := range indices {
			if m := st.slots[i].job.Mode; !seenMode[m] {
				seenMode[m] = true
				sw.Modes = append(sw.Modes, m)
			}
		}
		sw.Cells = make([][]statusCell, len(sw.Benches))
		for bi, b := range sw.Benches {
			sw.Cells[bi] = make([]statusCell, len(sw.Modes))
			for mi, m := range sw.Modes {
				if c := cells[b][m]; c != nil {
					sw.Cells[bi][mi] = statusCell{
						Text: fmt.Sprintf("%d/%d", c.done, c.total),
						Full: c.done == c.total,
					}
				}
			}
		}
		page.Sweeps = append(page.Sweeps, sw)
	}
	s.mu.Unlock() // render outside the lock: w may be a slow client
	_ = statusTmpl.Execute(w, page)
}
