package seccomm

import (
	"bytes"
	"testing"

	"sdimm/internal/raceflag"
)

// TestSealOpenAppendRoundTrip proves the append variants produce exactly the
// frames Seal/Open do and respect the dst contract (append, don't clobber).
func TestSealOpenAppendRoundTrip(t *testing.T) {
	host, dev := pair(t)
	pt := []byte("append-variant round trip payload")
	prefix := []byte("prefix-")
	frame := host.SealAppend(append([]byte(nil), prefix...), pt)
	if !bytes.HasPrefix(frame, prefix) {
		t.Fatalf("SealAppend clobbered dst prefix")
	}
	got, err := dev.OpenAppend(append([]byte(nil), prefix...), frame[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(append([]byte(nil), prefix...), pt...)) {
		t.Fatalf("OpenAppend result %q", got)
	}
}

// TestSealAppendMatchesSeal proves byte-for-byte frame compatibility between
// the allocating and append forms at identical counters.
func TestSealAppendMatchesSeal(t *testing.T) {
	a, _ := pair(t)
	// Seal at counter n, rewind, re-seal the same bytes with SealAppend:
	// identical counters must give identical frames.
	pt := []byte("identical frame check")
	f1 := a.Seal(pt)
	if err := a.ResendFrom(a.SendCounter() - 1); err != nil {
		t.Fatal(err)
	}
	f2 := a.SealAppend(nil, pt)
	if !bytes.Equal(f1, f2) {
		t.Fatalf("SealAppend frame differs from Seal frame")
	}
}

// TestSealOpenZeroAlloc is the tentpole's seccomm gate: steady-state seal
// and open must not allocate when the caller supplies capacity.
func TestSealOpenZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc gate skipped under -race (instrumentation allocates)")
	}
	host, dev := pair(t)
	pt := make([]byte, 90)
	sealBuf := make([]byte, 0, len(pt)+MACSize)
	openBuf := make([]byte, 0, len(pt))

	// Warm up any lazy state.
	for i := 0; i < 4; i++ {
		f := host.SealAppend(sealBuf[:0], pt)
		if _, err := dev.OpenAppend(openBuf[:0], f); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(500, func() {
		f := host.SealAppend(sealBuf[:0], pt)
		out, err := dev.OpenAppend(openBuf[:0], f)
		if err != nil || len(out) != len(pt) {
			t.Fatalf("round trip: %v", err)
		}
	}); n != 0 {
		t.Fatalf("SealAppend+OpenAppend allocate %.1f allocs/op, want 0", n)
	}
}

// BenchmarkSealOpen reports the per-frame link-crypto cost.
func BenchmarkSealOpen(b *testing.B) {
	dev, err := NewDevice("sdimm-bench", nil)
	if err != nil {
		b.Fatal(err)
	}
	auth := NewAuthority()
	auth.Register(dev)
	host, devSess, err := Handshake(nil, dev, auth)
	if err != nil {
		b.Fatal(err)
	}
	pt := make([]byte, 90)
	sealBuf := make([]byte, 0, len(pt)+MACSize)
	openBuf := make([]byte, 0, len(pt))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := host.SealAppend(sealBuf[:0], pt)
		if _, err := devSess.OpenAppend(openBuf[:0], f); err != nil {
			b.Fatal(err)
		}
	}
}
