package integrity

import (
	"testing"
	"testing/quick"
)

func TestTagRoundTrip(t *testing.T) {
	p := New([]byte("key"))
	data := []byte("bucket contents")
	tag := p.Tag(42, 7, data)
	if len(tag) != TagSize {
		t.Fatalf("tag size %d", len(tag))
	}
	if !p.Verify(42, 7, data, tag) {
		t.Fatal("genuine tag rejected")
	}
}

func TestVerifyRejectsChanges(t *testing.T) {
	p := New([]byte("key"))
	data := []byte("bucket contents")
	tag := p.Tag(42, 7, data)
	if p.Verify(43, 7, data, tag) {
		t.Fatal("relocated bucket accepted")
	}
	if p.Verify(42, 8, data, tag) {
		t.Fatal("stale counter accepted (replay)")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 1
	if p.Verify(42, 7, bad, tag) {
		t.Fatal("modified data accepted")
	}
	if p.Verify(42, 7, data, tag[:4]) {
		t.Fatal("truncated tag accepted")
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	a, b := New([]byte("k1")), New([]byte("k2"))
	data := []byte("x")
	if b.Verify(1, 1, data, a.Tag(1, 1, data)) {
		t.Fatal("tag valid under wrong key")
	}
}

// Property: Verify(Tag(...)) always succeeds, and any single-bit flip in
// the data fails.
func TestPropertyTagging(t *testing.T) {
	p := New([]byte("property-key"))
	f := func(bucket, counter uint64, data []byte) bool {
		tag := p.Tag(bucket, counter, data)
		if !p.Verify(bucket, counter, data, tag) {
			return false
		}
		if len(data) == 0 {
			return true
		}
		mut := append([]byte(nil), data...)
		mut[bucket%uint64(len(mut))] ^= 0x80
		return !p.Verify(bucket, counter, mut, tag)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
