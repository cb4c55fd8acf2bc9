package grid

import (
	"bytes"
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
)

// Tenant is one named client of the coordinator: a bearer token and the
// name that owns its sweeps. Tenants come from a token file
// (safespec-coordinator -token-file) or, for the single-tenant shorthand,
// from the -token flag.
type Tenant struct {
	// Name labels the tenant in logs, stats and metrics (never the token).
	Name string `json:"name"`
	// Token is the bearer secret presented as "Authorization: Bearer ...".
	Token string `json:"token"`
}

// tokenFile is the on-disk -token-file format: {"tenants": [...]}.
type tokenFile struct {
	Tenants []Tenant `json:"tenants"`
}

// LoadTenants reads a token file: a JSON object whose "tenants" array maps
// per-client tokens to named tenants. Names and tokens must be unique and
// non-empty (a duplicate token would make the match ambiguous; a duplicate
// name would merge two clients' sweeps). Unknown fields are rejected by
// name, so a file that asks for something the coordinator does not do,
// such as a per-tenant limit, fails loudly instead of being ignored.
func LoadTenants(path string) ([]Tenant, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("token file: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var tf tokenFile
	if err := dec.Decode(&tf); err != nil {
		return nil, fmt.Errorf("token file %s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("token file %s: data after the JSON object", path)
	}
	if len(tf.Tenants) == 0 {
		return nil, fmt.Errorf("token file %s: no tenants (want {\"tenants\": [{\"name\": ..., \"token\": ...}, ...]})", path)
	}
	names := make(map[string]bool, len(tf.Tenants))
	tokens := make(map[string]bool, len(tf.Tenants))
	for i, tn := range tf.Tenants {
		if tn.Name == "" {
			return nil, fmt.Errorf("token file %s: tenant %d has no name", path, i)
		}
		if tn.Token == "" {
			return nil, fmt.Errorf("token file %s: tenant %q has no token", path, tn.Name)
		}
		if names[tn.Name] {
			return nil, fmt.Errorf("token file %s: duplicate tenant name %q", path, tn.Name)
		}
		if tokens[tn.Token] {
			return nil, fmt.Errorf("token file %s: tenant %q reuses another tenant's token", path, tn.Name)
		}
		names[tn.Name], tokens[tn.Token] = true, true
	}
	return tf.Tenants, nil
}

// tenantState is one tenant's live accounting on the server.
type tenantState struct {
	Tenant
	tokenHash [sha256.Size]byte // compared in constant time, never the token
	requests  atomic.Uint64
}

// authenticator resolves bearer tokens to tenants in constant time: every
// lookup hashes the presented token and compares the digest against every
// tenant's digest, visiting all of them regardless of where (or whether) a
// match occurs, so response timing reveals neither token prefixes nor which
// tenant matched.
type authenticator struct {
	tenants []*tenantState
	// anonymous is the no-auth tenant used when no tokens are configured
	// (loopback development); nil when auth is enforced.
	anonymous *tenantState
}

func newAuthenticator(tenants []Tenant) *authenticator {
	a := &authenticator{}
	if len(tenants) == 0 {
		a.anonymous = &tenantState{Tenant: Tenant{Name: "anonymous"}}
		return a
	}
	for _, tn := range tenants {
		a.tenants = append(a.tenants, &tenantState{Tenant: tn, tokenHash: sha256.Sum256([]byte(tn.Token))})
	}
	return a
}

// resolve maps an Authorization header value to its tenant (nil when the
// token matches no tenant). With no tenants configured every request
// resolves to the anonymous tenant.
func (a *authenticator) resolve(authorization string) *tenantState {
	if a.anonymous != nil {
		return a.anonymous
	}
	const prefix = "Bearer "
	if len(authorization) < len(prefix) || authorization[:len(prefix)] != prefix {
		return nil
	}
	got := sha256.Sum256([]byte(authorization[len(prefix):]))
	var match *tenantState
	for _, ts := range a.tenants {
		// No early exit: every tenant is compared on every request.
		if subtle.ConstantTimeCompare(got[:], ts.tokenHash[:]) == 1 {
			match = ts
		}
	}
	return match
}

// byName resolves a tenant by its journaled name during state recovery
// (tokens are never written to disk, so name is the durable identity).
// nil when the name no longer exists in the token configuration.
func (a *authenticator) byName(name string) *tenantState {
	if a.anonymous != nil {
		if name == a.anonymous.Name {
			return a.anonymous
		}
		return nil
	}
	for _, ts := range a.tenants {
		if ts.Name == name {
			return ts
		}
	}
	return nil
}

// tenantKey carries the resolved tenant through the request context.
type tenantKey struct{}

// requestTenant returns the tenant the auth middleware resolved for this
// request (nil only for handlers mounted outside authTenants).
func requestTenant(req *http.Request) *tenantState {
	ts, _ := req.Context().Value(tenantKey{}).(*tenantState)
	return ts
}

// authTenants guards next with per-tenant bearer auth: an unknown token is
// 401, and the resolved tenant rides the request context so handlers can
// enforce sweep ownership.
func (s *Server) authTenants(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ts := s.auth.resolve(req.Header.Get("Authorization"))
		if ts == nil {
			s.authFailures.Add(1)
			w.Header().Set("WWW-Authenticate", `Bearer realm="safespec-grid"`)
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		ts.requests.Add(1)
		next.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), tenantKey{}, ts)))
	})
}
