// Package seccomm implements the secure CPU<->SDIMM communication of
// Section III-B: device authentication through a third-party authority,
// session establishment (the SEND_PKEY / RECEIVE_SECRET exchange of Table
// I), and low-latency counter-mode AES link encryption with message
// authentication for everything that crosses the untrusted memory channel.
//
// Counter-mode was chosen by the paper because the pad (a function of key
// and counter only) can be precomputed while data is in flight, keeping the
// added latency to one XOR. The DDR channel is lossless and ordered, so the
// two endpoints advance their counters in lockstep and no counter needs to
// travel with the data.
//
// A frame is AES-GCM's ciphertext || tag(12): GCM is that counter-mode pad
// plus a GHASH tag, so one AEAD call seals a frame and one opens it. Each
// direction has one AES-128 key, bytes 0..15 of that direction's HMAC-SHA256
// expansion of the ECDH secret. The nonce is 0x00000000 || counter(8), with
// no additional data, and the tag is GCM's 16-byte tag truncated to MACSize.
// The nonce is unique per direction key because a counter is only ever
// sealed twice through ResendFrom, whose contract — seal the identical bytes
// again — makes the second seal the same nonce over the same plaintext giving
// the same frame, which is a retransmission and not a nonce reuse. Breaking
// that contract would expose GHASH's key as well as the XOR of two
// plaintexts. A 96-bit truncated GCM tag bounds one forgery attempt on an
// l-block frame at about l/2^96 (NIST SP 800-38D, Appendix C); attempts are
// online only, and each failed one is an ErrAuth the fault layer counts
// toward abandoning the exchange and failing the SDIMM. Sessions are keyed
// afresh by every Handshake and never persisted.
package seccomm

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"sdimm/internal/telemetry"
)

// MACSize is the truncated GCM tag length appended to every sealed message.
const MACSize = 12

// Errors returned by the package. ErrOutOfOrder and ErrReplayed wrap
// ErrAuth: both are authentication failures first, with a counter-based
// diagnosis layered on top, so errors.Is(err, ErrAuth) holds for every
// rejected frame.
var (
	ErrAuth         = errors.New("seccomm: message authentication failed")
	ErrShortMessage = errors.New("seccomm: message shorter than MAC")
	ErrUnknownID    = errors.New("seccomm: device not registered with authority")
	// ErrOutOfOrder reports a frame that authenticates under a future
	// counter: earlier frames were lost or the channel reordered traffic.
	ErrOutOfOrder = fmt.Errorf("seccomm: frame from a future counter (lost or reordered traffic): %w", ErrAuth)
	// ErrReplayed reports a frame that authenticates under an already
	// consumed counter: a replay, or the peer retransmitting a frame whose
	// response it never saw.
	ErrReplayed = fmt.Errorf("seccomm: frame for an already-consumed counter (replay or retransmission): %w", ErrAuth)
)

// counterWindow bounds how far Open probes around the expected counter when
// diagnosing a MAC failure. Probing is pure classification: no probe ever
// advances cipher state, so a frame is only ever accepted at the exact
// expected counter.
const counterWindow = 16

// CounterError carries the diagnosis of a counter-mismatched frame: it
// wraps ErrOutOfOrder or ErrReplayed (and therefore ErrAuth) and records
// both the expected counter and the counter the frame authenticated under.
// The fault layer tests only ErrReplayed, not the counters: a device that
// sees one re-emits its cached response.
type CounterError struct {
	Expected uint64
	Got      uint64
	kind     error
}

func (e *CounterError) Error() string {
	return fmt.Sprintf("%v (expected counter %d, frame authenticates at %d)", e.kind, e.Expected, e.Got)
}

// Unwrap exposes ErrOutOfOrder or ErrReplayed (each of which wraps ErrAuth).
func (e *CounterError) Unwrap() error { return e.kind }

// Device is one trusted secure buffer with a long-term identity key.
type Device struct {
	id   string
	priv *ecdh.PrivateKey
}

// NewDevice mints a device with a fresh X25519 identity key. In production
// this key is fused at manufacturing; here it stands in for the vendor's
// provisioning step.
func NewDevice(id string, random io.Reader) (*Device, error) {
	if random == nil {
		random = rand.Reader
	}
	priv, err := ecdh.X25519().GenerateKey(random)
	if err != nil {
		return nil, fmt.Errorf("seccomm: generating device key: %w", err)
	}
	return &Device{id: id, priv: priv}, nil
}

// ID returns the device identity string.
func (d *Device) ID() string { return d.id }

// PublicKey returns the device's identity public key bytes (the response to
// the SEND_PKEY command).
func (d *Device) PublicKey() []byte { return d.priv.PublicKey().Bytes() }

// Authority is the third-party authenticator (the paper's Verisign
// analogue): it maps device IDs to registered public keys so a host can
// confirm it is talking to genuine secure buffers.
type Authority struct {
	keys map[string][]byte
}

// NewAuthority returns an empty registry.
func NewAuthority() *Authority { return &Authority{keys: make(map[string][]byte)} }

// Register records a device's public key (done by the vendor at
// manufacturing time).
func (a *Authority) Register(d *Device) {
	a.keys[d.ID()] = append([]byte(nil), d.PublicKey()...)
}

// Lookup returns the registered public key for a device ID.
func (a *Authority) Lookup(id string) ([]byte, error) {
	k, ok := a.keys[id]
	if !ok {
		return nil, ErrUnknownID
	}
	return append([]byte(nil), k...), nil
}

// Metrics mirrors link-crypto activity into telemetry counters under the
// seccomm.* namespace, splitting rejected frames by MAC-failure class. A
// nil *Metrics records nothing, so sessions can stay uninstrumented.
type Metrics struct {
	Seals         *telemetry.Counter // frames sealed (sent)
	Opens         *telemetry.Counter // frames authenticated and decrypted
	AuthFailures  *telemetry.Counter // rejected: tag invalid at every probed counter (tampering)
	Replayed      *telemetry.Counter // rejected: already-consumed counter (replay/retransmission)
	OutOfOrder    *telemetry.Counter // rejected: future counter (loss or reorder)
	ShortMessages *telemetry.Counter // rejected: shorter than the MAC
	Resyncs       *telemetry.Counter // counter realignments after abandonment
}

// NewMetrics resolves the seccomm.* counters in reg (labels fold into each
// name).
func NewMetrics(reg *telemetry.Registry, labels ...string) *Metrics {
	return &Metrics{
		Seals:         reg.Counter("seccomm.seals", labels...),
		Opens:         reg.Counter("seccomm.opens", labels...),
		AuthFailures:  reg.Counter("seccomm.auth_failures", labels...),
		Replayed:      reg.Counter("seccomm.replayed", labels...),
		OutOfOrder:    reg.Counter("seccomm.out_of_order", labels...),
		ShortMessages: reg.Counter("seccomm.short_messages", labels...),
		Resyncs:       reg.Counter("seccomm.resyncs", labels...),
	}
}

func bump(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}

func (m *Metrics) observeSeal() {
	if m != nil {
		bump(m.Seals)
	}
}

// observeOpen classifies one Open outcome into the per-class counters.
func (m *Metrics) observeOpen(err error) {
	if m == nil {
		return
	}
	switch {
	case err == nil:
		bump(m.Opens)
	case errors.Is(err, ErrShortMessage):
		bump(m.ShortMessages)
	case errors.Is(err, ErrReplayed):
		bump(m.Replayed)
	case errors.Is(err, ErrOutOfOrder):
		bump(m.OutOfOrder)
	default:
		bump(m.AuthFailures)
	}
}

func (m *Metrics) observeResync() {
	if m != nil {
		bump(m.Resyncs)
	}
}

// Session is one endpoint of an established secure link. Each endpoint has
// an upstream (CPU -> SDIMM) and downstream (SDIMM -> CPU) cipher state;
// Seal uses the endpoint's send direction and Open its receive direction.
// A Session is not safe for concurrent use: the cipher states carry
// reusable nonce and frame scratch so seal/open never allocate.
type Session struct {
	send cipherState
	recv cipherState
	m    *Metrics
}

// SetMetrics attaches telemetry counters to the session (nil detaches).
// Both endpoints of a link may share one *Metrics to get link totals.
func (s *Session) SetMetrics(m *Metrics) { s.m = m }

type cipherState struct {
	aead    cipher.AEAD // AES-128-GCM with a MACSize tag under the direction's key
	counter uint64

	// Reusable scratch: the nonce 0^32 || counter (its first four bytes stay
	// zero), and the buffer a send state seals into and a receive state's
	// classify probes open into.
	nonce [12]byte
	buf   []byte
}

// Handshake establishes a session pair. The host verifies the device
// against the authority, generates an ephemeral key (the RECEIVE_SECRET
// payload), and both sides derive upstream/downstream session keys from the
// ECDH shared secret. It returns the host endpoint and the device endpoint.
func Handshake(host io.Reader, dev *Device, auth *Authority) (*Session, *Session, error) {
	if host == nil {
		host = rand.Reader
	}
	registered, err := auth.Lookup(dev.ID())
	if err != nil {
		return nil, nil, err
	}
	devPub, err := ecdh.X25519().NewPublicKey(registered)
	if err != nil {
		return nil, nil, fmt.Errorf("seccomm: registered key invalid: %w", err)
	}
	eph, err := ecdh.X25519().GenerateKey(host)
	if err != nil {
		return nil, nil, fmt.Errorf("seccomm: ephemeral key: %w", err)
	}

	// Host side computes the shared secret against the *registered* key, so
	// an impostor device (whose private key does not match the registry)
	// derives a different secret and every subsequent MAC check fails.
	hostSecret, err := eph.ECDH(devPub)
	if err != nil {
		return nil, nil, fmt.Errorf("seccomm: host ECDH: %w", err)
	}
	devSecret, err := dev.priv.ECDH(eph.PublicKey())
	if err != nil {
		return nil, nil, fmt.Errorf("seccomm: device ECDH: %w", err)
	}

	hostSess, err := deriveSession(hostSecret, dev.ID(), true)
	if err != nil {
		return nil, nil, err
	}
	devSess, err := deriveSession(devSecret, dev.ID(), false)
	if err != nil {
		return nil, nil, err
	}
	return hostSess, devSess, nil
}

// deriveSession expands the shared secret via HMAC-SHA256 with direction
// labels into one 32-byte block per direction, whose first 16 bytes are that
// direction's AES-128 GCM key.
func deriveSession(secret []byte, id string, isHost bool) (*Session, error) {
	mk := func(label string) (cipherState, error) {
		m := hmac.New(sha256.New, secret)
		m.Write([]byte(label))
		m.Write([]byte(id))
		block, err := aes.NewCipher(m.Sum(nil)[:16])
		if err != nil {
			return cipherState{}, fmt.Errorf("seccomm: aes: %w", err)
		}
		aead, err := cipher.NewGCMWithTagSize(block, MACSize)
		if err != nil {
			return cipherState{}, fmt.Errorf("seccomm: gcm: %w", err)
		}
		return cipherState{aead: aead}, nil
	}
	up, err := mk("upstream")
	if err != nil {
		return nil, err
	}
	down, err := mk("downstream")
	if err != nil {
		return nil, err
	}
	if isHost {
		return &Session{send: up, recv: down}, nil
	}
	return &Session{send: down, recv: up}, nil
}

// nonceAt returns the GCM nonce for message counter ctr in cs's scratch,
// valid until the next nonceAt call on cs.
func (cs *cipherState) nonceAt(ctr uint64) []byte {
	binary.BigEndian.PutUint64(cs.nonce[4:], ctr)
	return cs.nonce[:]
}

// Seal encrypts and authenticates a message for the peer, returning
// ciphertext || MAC. The per-direction counter advances; the peer's Open
// must be called in the same order (the DDR bus guarantees ordering).
// The result is a fresh allocation the caller owns; the hot path uses
// SealAppend.
func (s *Session) Seal(plaintext []byte) []byte {
	return s.SealAppend(nil, plaintext)
}

// SealAppend is Seal appending the sealed frame to dst, allocating only if
// dst lacks capacity. It writes nothing of dst past the frame.
func (s *Session) SealAppend(dst, plaintext []byte) []byte {
	s.m.observeSeal()
	cs := &s.send
	// The frame is sealed into cs.buf with room for a whole 16-byte tag and
	// then copied out: Go 1.24's amd64 GCM stores a partial last block as
	// 16 bytes, which runs up to 3 bytes past a 12-byte tag.
	room := slices.Grow(cs.buf[:0], len(plaintext)+aes.BlockSize)
	cs.buf = cs.aead.Seal(room, cs.nonceAt(cs.counter), plaintext, nil)
	cs.counter++
	return append(dst, cs.buf...)
}

// Open authenticates and decrypts a message produced by the peer's Seal.
// A frame that fails at the expected counter is diagnosed against nearby
// counters (±counterWindow) so callers can distinguish tampering (ErrAuth)
// from reordering (ErrOutOfOrder) and replay/retransmission (ErrReplayed);
// diagnosis never advances state and never accepts the frame. The result is
// a fresh allocation the caller owns; the hot path uses OpenAppend.
func (s *Session) Open(msg []byte) ([]byte, error) {
	return s.OpenAppend(nil, msg)
}

// OpenAppend is Open appending the plaintext to dst, allocating only if dst
// lacks capacity. msg must not alias dst's spare capacity. On error dst is
// unchanged and the returned slice is nil.
func (s *Session) OpenAppend(dst, msg []byte) ([]byte, error) {
	out, err := s.openAppend(dst, msg)
	s.m.observeOpen(err)
	return out, err
}

func (s *Session) openAppend(dst, msg []byte) ([]byte, error) {
	cs := &s.recv
	if len(msg) < MACSize {
		return nil, ErrShortMessage
	}
	out, err := cs.aead.Open(dst, cs.nonceAt(cs.counter), msg, nil)
	if err != nil {
		return nil, cs.classify(msg)
	}
	cs.counter++
	return out, nil
}

// classify diagnoses a frame that failed authentication at the expected
// counter by opening it at nearby counters into cs.buf. An
// attacker gains nothing from the probing: forging a tag at any of the
// probed counters is as hard as forging it at the expected one, and the
// frame is rejected either way.
func (cs *cipherState) classify(msg []byte) error {
	cs.buf = slices.Grow(cs.buf[:0], len(msg)-MACSize)
	opens := func(ctr uint64) bool {
		pt, err := cs.aead.Open(cs.buf, cs.nonceAt(ctr), msg, nil)
		clear(pt)
		return err == nil
	}
	for j := uint64(1); j <= counterWindow; j++ {
		if opens(cs.counter + j) {
			return &CounterError{Expected: cs.counter, Got: cs.counter + j, kind: ErrOutOfOrder}
		}
		if j <= cs.counter && opens(cs.counter-j) {
			return &CounterError{Expected: cs.counter, Got: cs.counter - j, kind: ErrReplayed}
		}
	}
	return ErrAuth
}

// SendCounter exposes the next send counter (used by tests and by the
// simulator's deterministic-traffic assertions).
func (s *Session) SendCounter() uint64 { return s.send.counter }

// RecvCounter exposes the next expected receive counter.
func (s *Session) RecvCounter() uint64 { return s.recv.counter }

// RestoreCounters loads persisted send/receive counters onto the session
// (crash recovery: the durability checkpoint carries each link's logical
// message indices). SECURITY: this is only safe on a freshly handshaken
// session — the restart derives new ephemeral session keys, so no counter
// value can reuse a GCM nonce under the pre-crash keys. Counters may only
// move forward from the session's current position; rewinding (which on a
// long-lived session would reuse nonces and reopen the replay window) is
// rejected.
func (s *Session) RestoreCounters(send, recv uint64) error {
	if send < s.send.counter || recv < s.recv.counter {
		return fmt.Errorf("seccomm: RestoreCounters(%d, %d) would rewind counters (%d, %d)",
			send, recv, s.send.counter, s.recv.counter)
	}
	s.send.counter = send
	s.recv.counter = recv
	return nil
}

// ResendFrom rewinds the send counter to ctr so an unacknowledged frame can
// be retransmitted. SECURITY: the caller must re-Seal the exact bytes it
// sealed at ctr the first time — sealing a different plaintext at a reused
// counter reuses the GCM nonce: it leaks the XOR of the two plaintexts and
// gives away GHASH's key, with which tags can be forged.
// The counter can only move backwards (over frames the peer never accepted);
// skipping ahead is rejected.
func (s *Session) ResendFrom(ctr uint64) error {
	if ctr > s.send.counter {
		return fmt.Errorf("seccomm: ResendFrom(%d) would advance past send counter %d", ctr, s.send.counter)
	}
	s.send.counter = ctr
	return nil
}

// Resync realigns a session pair after the host abandons an exchange (retry
// budget exhausted with frames or responses lost in flight). It models the
// short authenticated control transaction a real host performs on the
// command bus before reusing the link. Receive counters only ever move
// FORWARD, to the peer's send counter: abandoned frames become permanently
// unacceptable and no counter can be consumed twice, so replay safety is
// preserved. Send counters are untouched — the next Seal uses a fresh
// counter and no nonce is ever reused.
func Resync(a, b *Session) {
	a.m.observeResync()
	if b.m != a.m {
		b.m.observeResync()
	}
	if a.send.counter > b.recv.counter {
		b.recv.counter = a.send.counter
	}
	if b.send.counter > a.recv.counter {
		a.recv.counter = b.send.counter
	}
}
