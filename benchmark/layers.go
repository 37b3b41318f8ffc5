package main

import (
	"crypto/aes"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"sdimm/internal/ctrmode"
	"sdimm/internal/durable"
	"sdimm/internal/integrity"
	"sdimm/internal/oram"
	"sdimm/internal/rng"
	isdimm "sdimm/internal/sdimm"
	"sdimm/internal/seccomm"
	"sdimm/internal/serve"
)

// Each probe below builds one layer standalone through its exported API, at
// the geometry one cluster member has, and replays the workload's operation
// stream through it. Nothing in the program is instrumented: a probe's time is
// what a caller of that layer pays, and a layer's self time is its probe minus
// the probes of the layers it calls.

var probeKey = []byte("benchmark-probe-key")

// bucketPlain is the plaintext a member's store seals per bucket.
const bucketPlain = bucketZ * (16 + blockSize)

// usPer times fn and returns microseconds per one of n units.
func usPer(n int, fn func()) float64 {
	t := time.Now()
	fn()
	return float64(time.Since(t).Nanoseconds()) / 1e3 / float64(n)
}

// probeLeaf spreads the replayed addresses over the member's leaves the way
// remapping does: a fresh leaf per access, derived from the stream position.
func probeLeaf(i int, o op, leaves uint64) uint64 {
	x := (o.addr+1)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return x % leaves
}

// storeProbe replays the stream's paths through a MemStore: every bucket on
// each path is opened (verify + decrypt) and then sealed (encrypt + tag),
// which is what one Path ORAM access asks of the store.
func storeProbe(memberLevels int, ops []op) (openUS, sealUS float64, err error) {
	st, err := oram.NewMemStore(bucketZ, blockSize, probeKey)
	if err != nil {
		return 0, 0, err
	}
	geom := oram.MustGeometry(memberLevels)
	full := oram.NewBucket(bucketZ)
	for i := range full.Slots {
		full.Slots[i] = oram.Block{Addr: uint64(i), Leaf: 0, Data: make([]byte, blockSize)}
	}
	path := make([]uint64, memberLevels)
	// Materialise every bucket the timed pass will open.
	for i, o := range ops {
		geom.Path(probeLeaf(i, o, geom.Leaves()), path)
		for _, idx := range path {
			if err := st.WriteBucket(idx, full); err != nil {
				return 0, 0, err
			}
		}
	}
	var b oram.Bucket
	var openNS, sealNS int64
	for i, o := range ops {
		geom.Path(probeLeaf(i, o, geom.Leaves()), path)
		t0 := time.Now()
		for _, idx := range path {
			if err = st.ReadBucketInto(idx, &b); err != nil {
				return 0, 0, err
			}
		}
		t1 := time.Now()
		for _, idx := range path {
			if err = st.WriteBucket(idx, full); err != nil {
				return 0, 0, err
			}
		}
		openNS += t1.Sub(t0).Nanoseconds()
		sealNS += time.Since(t1).Nanoseconds()
	}
	n := float64(len(ops) * memberLevels)
	return float64(openNS) / 1e3 / n, float64(sealNS) / 1e3 / n, nil
}

// cryptoProbe times the two primitives under a bucket open or seal on one
// bucket's worth of bytes: the AES-CTR pad and XOR, and the PMMAC tag.
func cryptoProbe(buckets int) (xorNS, tagNS float64, err error) {
	kb := make([]byte, 16)
	copy(kb, probeKey)
	blk, err := aes.NewCipher(kb)
	if err != nil {
		return 0, 0, err
	}
	var stream ctrmode.Stream
	var iv [ctrmode.BlockSize]byte
	src, dst := make([]byte, bucketPlain), make([]byte, bucketPlain)
	xorNS = 1e3 * usPer(buckets, func() {
		for i := 0; i < buckets; i++ {
			iv[0], iv[15] = byte(i), byte(i>>8)
			stream.XORKeyStream(blk, &iv, dst, src)
		}
	})
	mac := integrity.New(probeKey)
	tag := make([]byte, 0, integrity.TagSize)
	tagNS = 1e3 * usPer(buckets, func() {
		for i := 0; i < buckets; i++ {
			tag = mac.AppendTag(tag[:0], uint64(i), uint64(i), dst)
		}
	})
	return xorNS, tagNS, nil
}

func probeEngine(memberLevels, ringInterval int, pos oram.PositionMap) (*oram.Engine, error) {
	st, err := oram.NewMemStore(bucketZ, blockSize, probeKey)
	if err != nil {
		return nil, err
	}
	return oram.NewEngine(st, pos, oram.Options{
		Geometry: oram.MustGeometry(memberLevels), StashCapacity: 200, EvictThreshold: 150,
		RingFlushInterval: ringInterval, Rand: rng.New(7),
	})
}

// engineProbe replays the stream through one oram.Engine (path mode, or ring
// mode when ringInterval > 0) after writing every address once. It returns
// microseconds per access and the stash peak the engine reports.
func engineProbe(memberLevels, ringInterval int, space uint64, ops []op) (us float64, stashPeak int, err error) {
	e, err := probeEngine(memberLevels, ringInterval, oram.NewSparsePosMap())
	if err != nil {
		return 0, 0, err
	}
	buf := make([]byte, blockSize)
	for a := uint64(0); a < space; a++ {
		if _, _, err := e.Access(a, oram.OpWrite, buf); err != nil {
			return 0, 0, err
		}
	}
	us = usPer(len(ops), func() {
		for _, o := range ops {
			kind := oram.OpRead
			if o.write {
				kind = oram.OpWrite
			}
			if _, _, err = e.Access(o.addr, kind, buf); err != nil {
				return
			}
		}
	})
	return us, e.Stats().StashPeak, err
}

// bufferProbe replays the stream through one secure buffer the way the
// cluster's device side does: HandleAccess, PROBE, FETCH_RESULT, with the
// position map held by the caller and every block kept local.
func bufferProbe(memberLevels int, space uint64, ops []op) (float64, error) {
	e, err := probeEngine(memberLevels, 0, nil)
	if err != nil {
		return 0, err
	}
	b, err := isdimm.NewBuffer("probe", e, 64, 0.25, rng.New(9))
	if err != nil {
		return 0, err
	}
	leaves := e.Geometry().Leaves()
	pos := make([]uint64, space)
	draw := rng.New(11)
	buf := make([]byte, blockSize)
	access := func(addr uint64, kind oram.Op, mapped bool) error {
		old := pos[addr]
		if !mapped {
			old = draw.Uint64n(leaves)
		}
		req := isdimm.AccessRequest{Addr: addr, Op: kind, Data: buf, OldLeaf: old, NewLeaf: draw.Uint64n(leaves), Keep: true}
		if _, _, err := b.HandleAccess(req); err != nil {
			return err
		}
		if !b.HandleProbe() {
			return fmt.Errorf("buffer probe: no response")
		}
		if _, err := b.HandleFetchResult(); err != nil {
			return err
		}
		pos[addr] = req.NewLeaf
		return nil
	}
	for a := uint64(0); a < space; a++ {
		if err := access(a, oram.OpWrite, false); err != nil {
			return 0, err
		}
	}
	us := usPer(len(ops), func() {
		for _, o := range ops {
			kind := oram.OpRead
			if o.write {
				kind = oram.OpWrite
			}
			if err = access(o.addr, kind, true); err != nil {
				return
			}
		}
	})
	return us, err
}

// sealProbe times one sealed frame crossing a link: Seal on one side, Open on
// the other, at the size of an ACCESS command body.
func sealProbe(frames int) (float64, error) {
	dev, err := seccomm.NewDevice("probe-0", nil)
	if err != nil {
		return 0, err
	}
	auth := seccomm.NewAuthority()
	auth.Register(dev)
	host, devSess, err := seccomm.Handshake(nil, dev, auth)
	if err != nil {
		return 0, err
	}
	body := isdimm.AppendAccess([]byte{0}, isdimm.AccessRequest{Data: make([]byte, blockSize)}, blockSize)
	sealBuf := make([]byte, 0, len(body)+seccomm.MACSize)
	openBuf := make([]byte, 0, len(body))
	us := usPer(frames, func() {
		for i := 0; i < frames; i++ {
			frame := host.SealAppend(sealBuf[:0], body)
			if _, err = devSess.OpenAppend(openBuf[:0], frame); err != nil {
				return
			}
		}
	})
	return us, err
}

// journalProbe appends the stream to a standalone journal, one record per
// commit and then eight per commit (the pipeline's group size at Window 8),
// and reports the bytes each record adds to the file.
func journalProbe(dir string, ops []op) (perRecordUS, group8US, bytesPerOp float64, err error) {
	fp := durable.Fingerprint{Kind: "independent", Members: members, Levels: 16, BlockSize: blockSize, Z: bucketZ, Seed: 1}
	m, err := durable.Open(dir, probeKey, fp, blockSize, false)
	if err != nil {
		return 0, 0, 0, err
	}
	defer m.Close()
	if err = m.WriteCheckpoint(&durable.Checkpoint{Seq: 0}); err != nil {
		return 0, 0, 0, err
	}
	payload := make([]byte, blockSize)
	seq := uint64(0)
	rec := func(o op) durable.Record {
		seq++
		if o.write {
			return durable.Record{Seq: seq, Addr: o.addr, Kind: durable.KindWrite, Data: payload}
		}
		return durable.Record{Seq: seq, Addr: o.addr, Kind: durable.KindRead}
	}
	size := func() float64 {
		matches, _ := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
		var n int64
		for _, p := range matches {
			if fi, err := os.Stat(p); err == nil {
				n += fi.Size()
			}
		}
		return float64(n)
	}
	before := size()
	var one [1]durable.Record
	perRecordUS = usPer(len(ops), func() {
		for _, o := range ops {
			one[0] = rec(o)
			if err = m.Append(one[:]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	bytesPerOp = (size() - before) / float64(len(ops))
	var group [window]durable.Record
	groups := len(ops) / window
	group8US = usPer(groups, func() {
		for g := 0; g < groups; g++ {
			for i := range group {
				group[i] = rec(ops[g*window+i])
			}
			if err = m.Append(group[:]); err != nil {
				return
			}
		}
	})
	return perRecordUS, group8US, bytesPerOp, err
}

// wireProbe measures the serve wire format without a cluster behind it: an
// echo peer on loopback decodes each framed Request and answers with a framed
// Response. It also returns the bare loopback round trip of the same number
// of bytes, which is the kernel's floor under any wire change.
func wireProbe(rounds int) (wireUS, rttUS float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	peerErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			peerErr <- err
			return
		}
		defer conn.Close()
		raw := make([]byte, 256)
		for phase := 0; phase < 2; phase++ {
			for i := 0; i < rounds; i++ {
				if phase == 0 {
					frame, err := serve.ReadFrame(conn)
					if err != nil {
						peerErr <- err
						return
					}
					msg, err := serve.Decode(frame)
					if err != nil {
						peerErr <- err
						return
					}
					req := msg.(serve.Request)
					out, err := serve.Response{ID: req.ID, Credit: 32, Data: req.Data}.Encode()
					if err == nil {
						err = serve.WriteFrame(conn, out)
					}
					if err != nil {
						peerErr <- err
						return
					}
				} else {
					if _, err := io.ReadFull(conn, raw[:128]); err != nil {
						peerErr <- err
						return
					}
					if _, err := conn.Write(raw[:128]); err != nil {
						peerErr <- err
						return
					}
				}
			}
		}
		peerErr <- nil
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	data := make([]byte, blockSize)
	wireUS = usPer(rounds, func() {
		for i := 0; i < rounds; i++ {
			var out []byte
			if out, err = (serve.Request{ID: uint64(i + 1), Write: true, Addr: uint64(i), Data: data}).Encode(); err != nil {
				return
			}
			if err = serve.WriteFrame(conn, out); err != nil {
				return
			}
			var frame []byte
			if frame, err = serve.ReadFrame(conn); err != nil {
				return
			}
			if _, err = serve.Decode(frame); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	raw := make([]byte, 128)
	rttUS = usPer(rounds, func() {
		for i := 0; i < rounds; i++ {
			if _, err = conn.Write(raw); err != nil {
				return
			}
			if _, err = io.ReadFull(conn, raw); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return wireUS, rttUS, <-peerErr
}

// admissionProbe times one Admit/Done pair on an idle controller.
func admissionProbe(n int) (float64, error) {
	a, err := serve.NewAdmission(serve.AdmissionOptions{})
	if err != nil {
		return 0, err
	}
	defer a.Close()
	us := usPer(n, func() {
		for i := 0; i < n; i++ {
			if a.Admit(250*time.Millisecond, false) == serve.Accepted {
				a.Done(time.Millisecond)
			}
		}
	})
	return us * 1e3, nil
}

// calibSpin is the fixed unit of CPU work behind host.calib_ms.
func calibSpin() {
	buf := make([]byte, 1<<16)
	var sum [32]byte
	for i := 0; i < 256; i++ {
		buf[0] = byte(i)
		sum = sha256.Sum256(buf)
		buf[1] = sum[0]
	}
}
