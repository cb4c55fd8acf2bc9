package grid

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// writeTokenFile drops a token file into a temp dir and returns its path.
func writeTokenFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadTenants covers the token-file validation: the coordinator must
// refuse a file whose ambiguity (duplicate tokens/names) or gaps (missing
// fields) would otherwise surface as silent misrouting at request time.
func TestLoadTenants(t *testing.T) {
	good := `{"tenants": [
		{"name": "ci", "token": "tok-ci"},
		{"name": "dev", "token": "tok-dev"}
	]}`
	tenants, err := LoadTenants(writeTokenFile(t, good))
	if err != nil {
		t.Fatalf("valid token file rejected: %v", err)
	}
	if len(tenants) != 2 || tenants[0].Name != "ci" || tenants[0].Token != "tok-ci" ||
		tenants[1].Token != "tok-dev" {
		t.Fatalf("token file misparsed: %+v", tenants)
	}

	for name, tc := range map[string]struct{ content, wantErr string }{
		"empty":         {`{"tenants": []}`, "no tenants"},
		"no-name":       {`{"tenants": [{"token": "x"}]}`, "no name"},
		"no-token":      {`{"tenants": [{"name": "a"}]}`, "no token"},
		"dup-name":      {`{"tenants": [{"name":"a","token":"x"},{"name":"a","token":"y"}]}`, "duplicate tenant name"},
		"dup-token":     {`{"tenants": [{"name":"a","token":"x"},{"name":"b","token":"x"}]}`, "reuses another tenant's token"},
		"not-json":      {`tenants: [a]`, "token file"},
		"trailing-data": {`{"tenants": [{"name":"a","token":"x"}]} {}`, "data after the JSON object"},
		// The coordinator enforces no per-tenant limit: a file that sets
		// one must fail naming the field, not run unlimited.
		"max-sweeps":   {`{"tenants": [{"name":"a","token":"x","max_sweeps":2}]}`, `"max_sweeps"`},
		"rate-per-sec": {`{"tenants": [{"name":"a","token":"x","rate_per_sec":50}]}`, `"rate_per_sec"`},
		"burst":        {`{"tenants": [{"name":"a","token":"x","burst":10}]}`, `"burst"`},
	} {
		_, err := LoadTenants(writeTokenFile(t, tc.content))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", name, err, tc.wantErr)
		}
	}
	if _, err := LoadTenants(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing token file must error")
	}
}

// TestSingleTokenShorthand: ServerOptions.Token must behave exactly like a
// one-tenant token file — same auth, and the tenant shows up in stats under
// the name "default".
func TestSingleTokenShorthand(t *testing.T) {
	server := NewServer(ServerOptions{Token: "legacy"})
	snap := server.Stats()
	if len(snap.Tenants) != 1 || snap.Tenants[0].Name != "default" {
		t.Fatalf("shorthand tenant missing from stats: %+v", snap.Tenants)
	}
	if ts := server.auth.resolve("Bearer legacy"); ts == nil || ts.Name != "default" {
		t.Errorf("shorthand token does not resolve: %v", ts)
	}
	if ts := server.auth.resolve("Bearer wrong"); ts != nil {
		t.Errorf("wrong token resolved to tenant %q", ts.Name)
	}
}

// TestSweepOwnership: one tenant's sweep id must be invisible to another —
// every per-sweep endpoint answers 404, exactly as for an id that never
// existed, so ids can never be used across tenants.
func TestSweepOwnership(t *testing.T) {
	server := NewServer(ServerOptions{
		Tenants: []Tenant{{Name: "alice", Token: "ta"}, {Name: "bob", Token: "tb"}},
	})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()
	ctx := context.Background()

	var resp SubmitResponse
	if _, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/sweeps", "ta", "",
		SubmitRequest{Jobs: smallJobs(t, "exchange2")[:1]}, &resp); err != nil {
		t.Fatal(err)
	}
	foreign := []struct{ method, path string }{
		{http.MethodGet, "/v1/sweeps/" + resp.SweepID + "/results"},
		{http.MethodPost, "/v1/sweeps/" + resp.SweepID + "/jobs"},
		{http.MethodDelete, "/v1/sweeps/" + resp.SweepID},
	}
	for _, ep := range foreign {
		var body any
		if ep.method == http.MethodPost {
			body = JobRequest{Index: 9, Job: smallJobs(t, "exchange2")[0]}
		}
		status, err := doJSON(ctx, srv.Client(), ep.method, srv.URL+ep.path, "tb", "", body, nil)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusNotFound {
			t.Errorf("%s %s as foreign tenant: got %d, want 404", ep.method, ep.path, status)
		}
	}
	// The owner still resolves it.
	status, err := doJSON(ctx, srv.Client(), http.MethodGet, srv.URL+"/v1/sweeps/"+resp.SweepID+"/results", "ta", "", nil, nil)
	if err != nil || status != http.StatusOK {
		t.Errorf("owner poll: status %d err %v, want 200", status, err)
	}
	// Results come only from the batch stream: the sweep id itself serves
	// DELETE and nothing else.
	status, err = doJSON(ctx, srv.Client(), http.MethodGet, srv.URL+"/v1/sweeps/"+resp.SweepID, "ta", "", nil, nil)
	if err != nil || status != http.StatusMethodNotAllowed {
		t.Errorf("owner GET of the sweep id: status %d err %v, want 405", status, err)
	}
}

// metricLine matches one well-formed sample in the Prometheus text
// exposition format, as the CI scrape gate does.
var metricLine = regexp.MustCompile(`^safespec_[a-z0-9_]+(\{[a-z]+="(\\.|[^"\\])*"\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// TestMetricsWellFormed scrapes /metrics off the ops handler and checks
// every line is either a HELP/TYPE comment or a well-formed safespec_
// sample, that each family announces its TYPE before its samples, and that
// the load-bearing families are present with the values the test produced.
func TestMetricsWellFormed(t *testing.T) {
	server := NewServer(ServerOptions{
		Tenants: []Tenant{{Name: "m\"etrics", Token: "secret-token-tm"}},
	})
	api := httptest.NewServer(server.Handler())
	defer api.Close()
	ops := httptest.NewServer(server.OpsHandler())
	defer ops.Close()
	ctx := context.Background()

	// Produce some accounting: one open sweep and one 401.
	var resp SubmitResponse
	if _, err := doJSON(ctx, api.Client(), http.MethodPost, api.URL+"/v1/sweeps", "secret-token-tm", "",
		SubmitRequest{Jobs: smallJobs(t, "exchange2")[:1]}, &resp); err != nil {
		t.Fatal(err)
	}
	if status, _ := doJSON(ctx, api.Client(), http.MethodGet, api.URL+"/v1/stats", "bad", "", nil, nil); status != http.StatusUnauthorized {
		t.Fatalf("setup 401 got %d", status)
	}

	res, err := http.Get(ops.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type %q", ct)
	}
	typed := map[string]bool{}
	samples := map[string]string{}
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		name, value, _ := strings.Cut(line, " ")
		family, _, _ := strings.Cut(name, "{")
		// Histogram samples carry the family name plus a series suffix.
		base := family
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(family, suf) {
				base = strings.TrimSuffix(family, suf)
				break
			}
		}
		if !typed[family] && !typed[base] {
			t.Errorf("sample %q appears before its # TYPE", line)
		}
		samples[name] = value
	}
	for name, want := range map[string]string{
		"safespec_sweeps_active":                             "1",
		"safespec_auth_failures_total":                       "1",
		"safespec_jobs_pending":                              "1",
		`safespec_tenant_requests_total{tenant="m\"etrics"}`: "1",
	} {
		if got := samples[name]; got != want {
			t.Errorf("%s = %q, want %q (samples: %v)", name, got, want, samples)
		}
	}

	// The status page renders the same state read-only, with the sweep's id
	// and owner visible and the tenant's token nowhere.
	page, err := http.Get(ops.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer page.Body.Close()
	var html strings.Builder
	sc = bufio.NewScanner(page.Body)
	for sc.Scan() {
		html.WriteString(sc.Text() + "\n")
	}
	for _, want := range []string{resp.SweepID, "exchange2", "0/1"} {
		if !strings.Contains(html.String(), want) {
			t.Errorf("status page lacks %q:\n%s", want, html.String())
		}
	}
	if strings.Contains(html.String(), "secret-token-tm") {
		t.Error("status page leaks a tenant token")
	}
}
