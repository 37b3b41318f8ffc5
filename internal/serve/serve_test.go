package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sdimm"
	"sdimm/internal/fault"
	"sdimm/internal/rng"
)

func baseConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Cluster: sdimm.ClusterOptions{
			SDIMMs: 4, Levels: 10, Key: []byte("serve-test-key"), Seed: 5,
		},
		Pipeline: sdimm.PipelineOptions{Window: 8},
	}
}

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return s, addr
}

func TestServeMultiTenantBasic(t *testing.T) {
	s, addr := startServer(t, baseConfig(t))
	defer s.Shutdown(context.Background())

	var wg sync.WaitGroup
	for _, tenant := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			cl, err := Dial(addr, tenant)
			if err != nil {
				t.Errorf("%s: %v", tenant, err)
				return
			}
			defer cl.Close()
			base := uint64(0)
			if tenant == "beta" {
				base = 1000
			}
			for i := 0; i < 25; i++ {
				addr := base + uint64(i)
				want := fmt.Sprintf("%s-%03d", tenant, i)
				resp, err := cl.Do(Request{Addr: addr, Write: true, Data: []byte(want)})
				if err != nil || resp.Status != StatusOK {
					t.Errorf("%s write %d: %v %s", tenant, i, err, StatusString(resp.Status))
					return
				}
				resp, err = cl.Do(Request{Addr: addr})
				if err != nil || resp.Status != StatusOK {
					t.Errorf("%s read %d: %v %s", tenant, i, err, StatusString(resp.Status))
					return
				}
				if got := string(resp.Data[:len(want)]); got != want {
					t.Errorf("%s addr %d: got %q want %q", tenant, addr, got, want)
					return
				}
			}
		}(tenant)
	}
	wg.Wait()

	// Per-tenant accounting exists; admission never saw the labels.
	snap := s.Registry().Snapshot()
	text := snap.String()
	for _, want := range []string{"serve.requests{tenant=alpha}", "serve.requests{tenant=beta}"} {
		if !strings.Contains(text, want) {
			t.Errorf("telemetry missing %s:\n%s", want, text)
		}
	}

	// SLO + witness over HTTP.
	hs := httptest.NewServer(s.HTTPHandler())
	defer hs.Close()
	resp, err := hs.Client().Get(hs.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	var slo SLOSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&slo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if slo.OK != 100 {
		t.Errorf("SLO ok = %d, want 100", slo.OK)
	}
	if !slo.Witness.OK || slo.Witness.Frames == 0 {
		t.Errorf("witness not green under normal serving: %+v", slo.Witness)
	}
	if slo.Capacity != 1.0 {
		t.Errorf("healthy capacity = %v, want 1.0", slo.Capacity)
	}
	if slo.AcceptedDeadlineMissed != 0 {
		t.Errorf("accepted deadline misses = %d", slo.AcceptedDeadlineMissed)
	}
}

// TestServeTenantLabelCap: the tenant name is up to 255 bytes the client
// picks, and it labels seven counters, so a client that reconnects under
// fresh names must not grow the registry: past maxTenantLabels names the
// rest are counted under tenant="other", and /metrics stays well formed.
func TestServeTenantLabelCap(t *testing.T) {
	s, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	const conns = 10000
	for i := 0; i < conns; i++ {
		cli, srv := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.handleConn(srv)
		}()
		hello, err := Hello{Tenant: fmt.Sprintf("tenant-%05d", i)}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(cli, hello); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFrame(cli); err != nil {
			t.Fatal(err)
		}
		if i == conns-1 {
			// The overflow label counts like any other.
			req, err := Request{ID: 1, Write: true, Addr: 3, Data: []byte("x")}.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteFrame(cli, req); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadFrame(cli); err != nil {
				t.Fatal(err)
			}
		}
		cli.Close()
		<-done
	}

	snap := s.Registry().Snapshot()
	tenants := map[string]bool{}
	for name := range snap.Counters {
		if _, rest, ok := strings.Cut(name, "tenant="); ok {
			tenants[strings.TrimRight(rest, "}")] = true
		}
	}
	if len(tenants) > maxTenantLabels+1 {
		t.Errorf("%d connections left %d tenant label values, cap %d + other", conns, len(tenants), maxTenantLabels)
	}
	if got, want := snap.Counters["serve.connections{tenant=other}"], uint64(conns-maxTenantLabels); got != want {
		t.Errorf("serve.connections{tenant=other} = %d, want %d", got, want)
	}
	if got := snap.Counters["serve.ok{tenant=other}"]; got != 1 {
		t.Errorf("serve.ok{tenant=other} = %d, want 1", got)
	}

	checkMetricsWellFormed(t, s)
}

// checkMetricsWellFormed fails unless every line of the server's /metrics
// is a comment or one well-formed sample, and there are 1…2000 of them.
func checkMetricsWellFormed(t *testing.T, s *Server) {
	t.Helper()
	hs := httptest.NewServer(s.HTTPHandler())
	defer hs.Close()
	resp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? [-+0-9.eEInfNa]+$`)
	lines := 0
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); lines++ {
		if line := sc.Text(); !strings.HasPrefix(line, "# ") && !sample.MatchString(line) {
			t.Fatalf("/metrics line %d is not a sample: %q", lines, line)
		}
	}
	if lines == 0 || lines > 2000 {
		t.Errorf("/metrics has %d lines", lines)
	}
}

// TestServeTenantLabelSanitized: a tenant name is client-chosen bytes, and
// the registry keys a counter by "name{k=v,...}", so a name carrying ',',
// '=' or '}' could add label pairs of its own. Every tenant-labelled counter
// must keep exactly its own label keys, with the name folded onto
// [A-Za-z0-9._-].
func TestServeTenantLabelSanitized(t *testing.T) {
	s, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	names := map[string]string{
		"x,reason=overload}": "x_reason_overload_",
		`q"u\o{t}e`:          "q_u_o_t_e",
		"new\nline=1":        "new_line_1",
		"caf\u00e9":          "caf__",
		"ok-name_1.2":        "ok-name_1.2",
		"":                   "anon",
	}
	for name := range names {
		cli, srv := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.handleConn(srv)
		}()
		hello, err := Hello{Tenant: name}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(cli, hello); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFrame(cli); err != nil {
			t.Fatal(err)
		}
		cli.Close()
		<-done
	}

	keys := map[string]string{
		"serve.connections":              "tenant",
		"serve.requests":                 "tenant",
		"serve.ok":                       "tenant",
		"serve.errors":                   "tenant",
		"serve.deadline.missed.accepted": "tenant",
		"serve.shed":                     "reason,tenant",
	}
	label := regexp.MustCompile(`^[A-Za-z0-9._-]+$`)
	snap := s.Registry().Snapshot()
	for name := range snap.Counters {
		base, rest, ok := strings.Cut(name, "{")
		if !ok || keys[base] == "" {
			continue
		}
		var got []string
		for _, pair := range strings.Split(strings.TrimSuffix(rest, "}"), ",") {
			k, v, _ := strings.Cut(pair, "=")
			got = append(got, k)
			if !label.MatchString(v) {
				t.Errorf("%s: label %s=%q is not [A-Za-z0-9._-]+", name, k, v)
			}
		}
		if strings.Join(got, ",") != keys[base] {
			t.Errorf("%s: label keys %v, want %s", name, got, keys[base])
		}
	}
	for name, want := range names {
		if got := snap.Counters["serve.connections{tenant="+want+"}"]; got == 0 {
			t.Errorf("tenant %q: no serve.connections{tenant=%s}", name, want)
		}
	}
	checkMetricsWellFormed(t, s)
}

// TestServeOverloadSheds drives the production queue limit of 66 with 160
// closed-loop workers: the server must shed rather than queue into deadline
// misses, and everything it does accept must complete in time.
func TestServeOverloadSheds(t *testing.T) {
	s, addr := startServer(t, baseConfig(t))
	defer s.Shutdown(context.Background())

	rep, err := RunLoad(LoadOptions{
		Addr: addr, Tenant: "storm", Workers: 160, Ops: 1600,
		Space: 128, DeadlineMS: 2000, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 {
		t.Fatal("overloaded server made no progress at all")
	}
	if rep.Shed == 0 {
		t.Fatalf("160 workers against a depth-%d queue shed nothing: %+v", s.Admission().Limit(), rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d hard errors under overload: %+v", rep.Errors, rep)
	}
	slo := s.SLO()
	if slo.AcceptedDeadlineMissed != 0 {
		t.Fatalf("%d accepted requests missed their deadline — admission let them in anyway", slo.AcceptedDeadlineMissed)
	}
	if !slo.Witness.OK {
		t.Fatalf("witness tripped during overload: %+v", slo.Witness)
	}
	if slo.QueuePeak > s.Admission().Limit() {
		t.Fatalf("queue peaked at %d past limit %d", slo.QueuePeak, s.Admission().Limit())
	}
}

// TestServeFlightDumpOnWitnessViolation pins the auto-dump path: a witness
// violation must snapshot the flight rings to disk exactly once.
func TestServeFlightDumpOnWitnessViolation(t *testing.T) {
	cfg := baseConfig(t)
	cfg.FlightDir = t.TempDir()
	s, addr := startServer(t, cfg)
	defer s.Shutdown(context.Background())

	cl, err := Dial(addr, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Enough traffic to freeze the shape set.
	for i := 0; i < 70; i++ {
		if resp, err := cl.Do(Request{Addr: uint64(i % 8)}); err != nil || resp.Status != StatusOK {
			t.Fatalf("op %d: %v %s", i, err, StatusString(resp.Status))
		}
	}
	// A frame shape the calibrated link never produced: the monitor's
	// violation hook dumps before Tap returns.
	s.Witness().Tap(0, fault.HostToDev, 0, make([]byte, 31337))
	path := filepath.Join(cfg.FlightDir, "flight-witness-shape.trace.json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("flight recorder did not dump: %v", err)
	}
	// Second violation: no second dump file churn (dump-once is per trigger).
	s.Witness().Tap(0, fault.HostToDev, 0, make([]byte, 31338))
	ents, err := os.ReadDir(cfg.FlightDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("expected exactly one dump, found %d", len(ents))
	}
}

// TestServeFlightDumpUnderTraffic: the server dumps the flight recorder
// while the cluster is writing it — here a witness violation fires while
// four clients keep the pipeline busy, and the dump runs on the caller's
// goroutine. Under -race the dump's copy must be synchronized with every
// ring's writer.
func TestServeFlightDumpUnderTraffic(t *testing.T) {
	cfg := baseConfig(t)
	cfg.FlightDir = t.TempDir()
	s, addr := startServer(t, cfg)
	defer s.Shutdown(context.Background())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		cl, err := Dial(addr, fmt.Sprintf("t%d", w))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := Request{Addr: uint64(w*16 + i%16), Write: i%3 == 0, Data: []byte{byte(i)}}
				if resp, err := cl.Do(req); err != nil || resp.Status != StatusOK {
					t.Errorf("client %d op %d: %v %s", w, i, err, StatusString(resp.Status))
					return
				}
			}
		}()
	}
	served := func(n uint64) {
		for deadline := time.Now().Add(10 * time.Second); s.SLO().OK < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("served %d of %d ops in 10s", s.SLO().OK, n)
			}
		}
	}
	// Let the witness calibrate on live traffic, then show it a frame shape
	// the link never produced while the clients keep going.
	served(200)
	s.Witness().Tap(0, fault.HostToDev, 0, make([]byte, 31337))
	served(s.SLO().OK + 200)
	close(stop)
	wg.Wait()
	if _, err := os.Stat(filepath.Join(cfg.FlightDir, "flight-witness-shape.trace.json")); err != nil {
		t.Fatalf("flight recorder did not dump: %v", err)
	}
}

// TestServeGracefulShutdownDurable: every write the server acknowledged
// before Shutdown must read back identically from a recovered server — the
// drain runs through the durable journal commit point.
func TestServeGracefulShutdownDurable(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig(t)
	cfg.Cluster.Durability = &sdimm.DurabilityOptions{Dir: dir, Interval: 32}
	s, addr := startServer(t, cfg)

	cl, err := Dial(addr, "durable")
	if err != nil {
		t.Fatal(err)
	}
	acked := map[uint64]string{}
	for i := 0; i < 60; i++ {
		a := uint64(i % 40)
		v := fmt.Sprintf("v%04d", i)
		resp, err := cl.Do(Request{Addr: a, Write: true, Data: []byte(v)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status == StatusOK {
			acked[a] = v
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	cl.Close()
	// Post-shutdown the address must refuse connections.
	if _, err := Dial(addr, "late"); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}

	s2, report, err := Recover(cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if report == nil {
		t.Fatal("recovery returned no report")
	}
	addr2, err := s2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	cl2, err := Dial(addr2, "durable")
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	for a, v := range acked {
		resp, err := cl2.Do(Request{Addr: a})
		if err != nil || resp.Status != StatusOK {
			t.Fatalf("recovered read %d: %v %s", a, err, StatusString(resp.Status))
		}
		if got := string(resp.Data[:len(v)]); got != v {
			t.Fatalf("addr %d: recovered %q, acked %q", a, got, v)
		}
	}
}

// TestServeCrashRecoveryEquivalence is the acceptance gate: a planned crash
// mid-stream (torn final record), recovery, and a fresh reference cluster
// replaying the same committed prefix sequentially must agree bitwise on the
// position map and on every block's content.
func TestServeCrashRecoveryEquivalence(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig(t)
	cfg.Cluster.Durability = &sdimm.DurabilityOptions{Dir: dir, Interval: 32}
	s, addr := startServer(t, cfg)
	if err := s.Cluster().PlanCrash(50, 3); err != nil {
		t.Fatal(err)
	}

	// Deterministic serial workload: request order = logical order.
	r := rng.Stream(77, "serve-crash", 0)
	type op struct {
		addr  uint64
		write bool
		data  string
	}
	ops := make([]op, 300)
	for i := range ops {
		ops[i] = op{addr: r.Uint64n(32), write: r.Bool(0.6)}
		if ops[i].write {
			ops[i].data = fmt.Sprintf("crash-op-%04d", i)
		}
	}

	cl, err := Dial(addr, "crasher")
	if err != nil {
		t.Fatal(err)
	}
	crashed := false
	for _, o := range ops {
		req := Request{Addr: o.addr, Write: o.write, Data: []byte(o.data)}
		if !o.write {
			req.Data = nil
		}
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status == StatusError {
			if !strings.Contains(string(resp.Data), "crash") {
				t.Fatalf("unexpected error: %s", resp.Data)
			}
			crashed = true
			break
		}
	}
	if !crashed {
		t.Fatal("planned crash never surfaced to the client")
	}
	cl.Close()
	s.Shutdown(context.Background()) // error is fine: the backend is crashed

	// Recover the crashed state directory.
	rc, report, err := sdimm.RecoverCluster(cfg.Cluster)
	if err != nil {
		t.Fatalf("RecoverCluster: %v", err)
	}
	defer rc.Close()
	if report == nil {
		t.Fatal("no recovery report")
	}
	n := rc.WorkloadSeq()
	if n == 0 || n > uint64(len(ops)) {
		t.Fatalf("implausible committed count %d", n)
	}

	// Reference: the same committed prefix, sequentially, from scratch.
	ref, err := sdimm.NewCluster(sdimm.ClusterOptions{
		SDIMMs: 4, Levels: 10, Key: []byte("serve-test-key"), Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, o := range ops[:n] {
		if o.write {
			if err := ref.Write(o.addr, []byte(o.data)); err != nil {
				t.Fatal(err)
			}
		} else if _, err := ref.Read(o.addr); err != nil {
			t.Fatal(err)
		}
	}

	gotPos, wantPos := rc.Positions(), ref.Positions()
	if len(gotPos) != len(wantPos) {
		t.Fatalf("position map sizes differ: %d vs %d", len(gotPos), len(wantPos))
	}
	for a, leaf := range wantPos {
		if gotPos[a] != leaf {
			t.Fatalf("addr %d: recovered leaf %d, reference leaf %d", a, gotPos[a], leaf)
		}
	}
	// Content sweep, lockstep so both clusters keep drawing the same RNG
	// stream.
	for a := uint64(0); a < 32; a++ {
		got, err := rc.Read(a)
		if err != nil {
			t.Fatalf("recovered read %d: %v", a, err)
		}
		want, err := ref.Read(a)
		if err != nil {
			t.Fatalf("reference read %d: %v", a, err)
		}
		if string(got) != string(want) {
			t.Fatalf("addr %d content diverged after recovery", a)
		}
	}
}
