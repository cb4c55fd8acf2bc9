package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"encoding/pem"
	"io"
	"math/big"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"safespec/internal/grid"
	"safespec/internal/sweep"
)

// TestCoordinatorServesSweeps drives the binary's run function end to end:
// it must announce its address, enforce the bearer token, serve a sweep
// submitted by a RemoteExecutor through an authenticated worker, and shut
// down cleanly on context cancellation.
func TestCoordinatorServesSweeps(t *testing.T) {
	const token = "coordinator-test-token"
	infoR, infoW := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, config{listen: "127.0.0.1:0", token: token, info: infoW})
		infoW.Close()
		done <- err
	}()

	// Scrape the ephemeral address from the structured startup record
	// ("coordinator listening" with a url= attribute), then keep draining
	// the stream (io.Pipe writes block on an idle reader).
	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(infoR)
		for sc.Scan() {
			line := sc.Text()
			if !strings.Contains(line, "coordinator listening") {
				continue
			}
			if _, addr, ok := strings.Cut(line, "url="); ok {
				urlc <- strings.Fields(addr)[0]
			}
		}
	}()
	var url string
	select {
	case url = <-urlc:
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never announced its address")
	}

	// Unauthenticated requests bounce off every endpoint.
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless stats got %d, want 401", resp.StatusCode)
	}

	workerCtx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	w := &grid.Worker{Coordinator: url, Token: token, ID: "cw", Parallel: 2,
		Poll: 5 * time.Millisecond}
	go w.Run(workerCtx)

	spec := sweep.Quick()
	spec.Benchmarks = []string{"exchange2"}
	spec.Instructions = 2_000
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	re := &grid.RemoteExecutor{URL: url, Token: token, PollWait: 100 * time.Millisecond}
	results, err := sweep.Run(context.Background(), jobs,
		sweep.Options{Workers: len(jobs), Executor: re})
	if err != nil {
		t.Fatal(err)
	}
	if err := sweep.FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Errorf("close sweep: %v", err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("coordinator exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator did not exit on cancellation")
	}
}

// TestCoordinatorBadListenAddr: an unusable listen address must error out
// instead of hanging.
func TestCoordinatorBadListenAddr(t *testing.T) {
	err := run(context.Background(), config{listen: "256.256.256.256:0", quiet: true, info: io.Discard})
	if err == nil {
		t.Fatal("bogus listen address must error")
	}
}

// TestCoordinatorStateSurvivesRestart: with -state-dir, a sweep submitted
// to one coordinator process is served by the next one — the restart
// announces the recovery, the submission nonce resolves to the same sweep
// id, and the sweep's result cursor answers.
func TestCoordinatorStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	start := func() (url string, recovered chan string, cancel context.CancelFunc, done chan error) {
		infoR, infoW := io.Pipe()
		ctx, cancelRun := context.WithCancel(context.Background())
		done = make(chan error, 1)
		go func() {
			err := run(ctx, config{listen: "127.0.0.1:0", stateDir: dir,
				drainWait: 2 * time.Second, info: infoW})
			infoW.Close()
			done <- err
		}()
		urlc := make(chan string, 1)
		recovered = make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(infoR)
			for sc.Scan() {
				line := sc.Text()
				if strings.Contains(line, "coordinator listening") {
					if _, addr, ok := strings.Cut(line, "url="); ok {
						urlc <- strings.Fields(addr)[0]
					}
				}
				if strings.Contains(line, "state recovered") {
					select {
					case recovered <- line:
					default:
					}
				}
			}
		}()
		select {
		case url = <-urlc:
		case <-time.After(10 * time.Second):
			t.Fatal("coordinator never announced its address")
		}
		return url, recovered, cancelRun, done
	}

	submit := func(url, nonce string) string {
		t.Helper()
		spec := sweep.Quick()
		spec.Benchmarks = []string{"exchange2"}
		spec.Instructions = 2_000
		jobs, err := spec.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(grid.SubmitRequest{Jobs: jobs[:1], Nonce: nonce})
		resp, err := http.Post(url+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		var sr grid.SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr.SweepID
	}

	url1, _, cancel1, done1 := start()
	id := submit(url1, "n-cmd-restart")
	cancel1()
	select {
	case err := <-done1:
		if err != nil {
			t.Fatalf("first coordinator exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("first coordinator did not exit")
	}

	url2, rec2, cancel2, done2 := start()
	defer func() {
		cancel2()
		<-done2
	}()
	select {
	case line := <-rec2:
		if !strings.Contains(line, "sweeps=1") {
			t.Errorf("recovery line reports wrong sweep count: %s", line)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("restarted coordinator never logged state recovery")
	}
	// The nonce resolves to the recovered sweep, not a fresh one.
	if got := submit(url2, "n-cmd-restart"); got != id {
		t.Fatalf("nonce resolved to %s after restart, want %s", got, id)
	}
	// And its result cursor answers.
	resp, err := http.Get(url2 + "/v1/sweeps/" + id + "/results?after=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered sweep cursor: status %d, want 200", resp.StatusCode)
	}
}

// TestTLSHandshakeErrorLogged: net/http's own errors go through the
// structured logger. A client that refuses the coordinator's self-signed
// certificate leaves a JSON warning naming the failed handshake under
// -log-format json, not a bare stderr line.
func TestTLSHandshakeErrorLogged(t *testing.T) {
	dir := t.TempDir()
	certFile, keyFile := filepath.Join(dir, "cert.pem"), filepath.Join(dir, "key.pem")
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{SerialNumber: big.NewInt(1), Subject: pkix.Name{CommonName: "safespec-test"},
		NotBefore: time.Now().Add(-time.Hour), NotAfter: time.Now().Add(time.Hour),
		IPAddresses: []net.IP{net.IPv4(127, 0, 0, 1)}}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalPKCS8PrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	for file, block := range map[string]*pem.Block{certFile: {Type: "CERTIFICATE", Bytes: der},
		keyFile: {Type: "PRIVATE KEY", Bytes: keyDER}} {
		if err := os.WriteFile(file, pem.EncodeToMemory(block), 0o600); err != nil {
			t.Fatal(err)
		}
	}

	infoR, infoW := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		err := run(ctx, config{listen: "127.0.0.1:0", tlsCert: certFile, tlsKey: keyFile,
			logFormat: "json", info: infoW})
		infoW.Close()
		done <- err
	}()
	// The reader hands log lines over until the test stops listening, then
	// drains the rest so the coordinator's log writes never block.
	lines, stop := make(chan string), make(chan struct{})
	go func() {
		sc := bufio.NewScanner(infoR)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-stop:
			}
		}
	}()
	defer func() {
		close(stop)
		cancel()
		<-done
	}()
	next := func() map[string]any {
		t.Helper()
		select {
		case line := <-lines:
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("log line is not JSON: %s", line)
			}
			return rec
		case <-time.After(10 * time.Second):
			t.Fatal("coordinator logged nothing more")
			return nil
		}
	}
	var addr string
	for addr == "" {
		if rec := next(); rec["msg"] == "coordinator listening" {
			addr = strings.TrimPrefix(rec["url"].(string), "https://")
		}
	}
	// The client trusts no root for the self-signed certificate, so it
	// aborts the handshake with a bad-certificate alert.
	if conn, err := tls.Dial("tcp", addr, &tls.Config{}); err == nil {
		conn.Close()
		t.Fatal("a client without the certificate completed the handshake")
	}
	for {
		rec := next()
		if msg, _ := rec["msg"].(string); strings.Contains(msg, "TLS handshake error") {
			if rec["level"] != "WARN" {
				t.Errorf("handshake error logged at level %v, want WARN: %v", rec["level"], rec)
			}
			return
		}
	}
}
