package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("cluster.accesses")
	c2 := r.Counter("cluster.accesses")
	if c1 != c2 {
		t.Fatal("same name resolved to different counters")
	}
	c1.Add(3)
	c2.Inc()
	if got := r.Counter("cluster.accesses").Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	g := r.Gauge("queue.depth", "sdimm", "2")
	g.Set(7)
	g.Add(-3)
	if got := r.Gauge("queue.depth", "sdimm", "2").Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	h1 := r.Histogram("lat")
	h2 := r.Histogram("lat")
	if h1 != h2 {
		t.Fatal("same name resolved to different histograms")
	}
}

func TestName(t *testing.T) {
	if got := Name("dram.reads"); got != "dram.reads" {
		t.Fatalf("Name no labels = %q", got)
	}
	// Labels sort by key regardless of argument order.
	a := Name("dram.reads", "rank", "0", "chan", "sdimm1")
	b := Name("dram.reads", "chan", "sdimm1", "rank", "0")
	if a != b || a != "dram.reads{chan=sdimm1,rank=0}" {
		t.Fatalf("Name = %q / %q", a, b)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("h").Add(2)
	r.AddHistogram("h2", &Histogram{})
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h")
			g := r.Gauge("g")
			for i := 0; i < per; i++ {
				c.Inc()
				h.Add(uint64(i % 700))
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("h").N(); got != workers*per {
		t.Fatalf("histogram n = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("g").Value(); got != workers*per {
		t.Fatalf("gauge = %d, want %d", got, workers*per)
	}
}

func TestSnapshotTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("cluster.reads").Add(5)
	r.Gauge("fault.health.state", "sdimm", "0").Set(2)
	r.Histogram("lat").Add(33)
	s := r.Snapshot()

	var b strings.Builder
	s.WriteText(&b)
	txt := b.String()
	for _, want := range []string{"cluster.reads", "fault.health.state{sdimm=0}", "lat"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("text snapshot missing %q:\n%s", want, txt)
		}
	}
	b.Reset()
	s.WriteText(&b, "cluster.")
	if strings.Contains(b.String(), "fault.health") {
		t.Fatalf("prefix filter leaked: %s", b.String())
	}

	var round Snapshot
	if err := json.Unmarshal(s.JSON(), &round); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if round.Counters["cluster.reads"] != 5 {
		t.Fatalf("JSON counters = %+v", round.Counters)
	}
	if round.Histograms["lat"].N != 1 {
		t.Fatalf("JSON histograms = %+v", round.Histograms)
	}
}

func TestHTTPEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("cluster.reads").Add(9)
	addr, stop, err := Serve("localhost:0", r)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer stop()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(get("/")), &s); err != nil {
		t.Fatalf("endpoint JSON: %v", err)
	}
	if s.Counters["cluster.reads"] != 9 {
		t.Fatalf("endpoint counters = %+v", s.Counters)
	}
	if txt := get("/?text=1"); !strings.Contains(txt, "cluster.reads") {
		t.Fatalf("endpoint text = %q", txt)
	}
}

func TestStartLogger(t *testing.T) {
	r := NewRegistry()
	r.Counter("cluster.reads").Inc()
	pr, pw := io.Pipe()
	stop := StartLogger(r, pw, 10*time.Millisecond, "cluster.")
	br := bufio.NewReader(pr)
	deadline := time.After(5 * time.Second)
	found := make(chan string, 1)
	go func() {
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			if strings.Contains(line, "cluster.reads") {
				found <- line
				return
			}
		}
	}()
	select {
	case <-found:
	case <-deadline:
		t.Fatal("logger produced no snapshot line")
	}
	stop()
	pr.Close()
	pw.Close()
}

// TestRegistryHotPathAllocs is the enforced form of the benchmark guard:
// metric updates must never allocate, so telemetry cannot appear in future
// performance work.
func TestRegistryHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot.counter")
	g := r.Gauge("hot.gauge")
	h := r.Histogram("hot.hist")
	var i uint64
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		c.Inc()
		c.Add(2)
		g.Set(int64(i))
		g.Add(-1)
		h.Add(i * 37 % 100000)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkRegistryHotPath proves counter/histogram updates are
// allocation-free and cheap.
func BenchmarkRegistryHotPath(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("hot.counter")
	h := r.Histogram("hot.hist")
	g := r.Gauge("hot.gauge")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Add(uint64(i) % 65536)
		g.Set(int64(i))
	}
	if n := testing.AllocsPerRun(100, func() { c.Inc(); h.Add(1); g.Add(1) }); n != 0 {
		b.Fatalf("hot path allocates %.1f allocs/op, want 0", n)
	}
}

func ExampleName() {
	fmt.Println(Name("dram.row_hits", "chan", "sdimm0", "rank", "1"))
	// Output: dram.row_hits{chan=sdimm0,rank=1}
}
