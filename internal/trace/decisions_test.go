package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// decisionVectors covers the shapes that matter for coalescing: empty, one
// byte, constant runs, alternating worst case, and mixed run structure.
func decisionVectors() map[string][]byte {
	long := make([]byte, 4096)
	for i := range long {
		long[i] = byte((i / 97) % 5)
	}
	alternating := make([]byte, 257)
	for i := range alternating {
		alternating[i] = byte(i % 2)
	}
	rnd := rand.New(rand.NewSource(42))
	random := make([]byte, 1023)
	for i := range random {
		random[i] = byte(rnd.Intn(4))
	}
	return map[string][]byte{
		"empty":       {},
		"one":         {3},
		"constant":    bytes.Repeat([]byte{1}, 1024),
		"two runs":    append(bytes.Repeat([]byte{0}, 100), bytes.Repeat([]byte{2}, 100)...),
		"alternating": alternating,
		"long mixed":  long,
		"random":      random,
	}
}

func TestDecisionsRLERoundTrip(t *testing.T) {
	for name, want := range decisionVectors() {
		enc := AppendDecisionsRLE(nil, want)
		got, err := DecodeDecisionsRLE(enc, nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: round trip changed the bytes: got %d, want %d", name, len(got), len(want))
		}
		// Appending must extend dst, not clobber it.
		prefix := []byte{9, 9}
		got, err = DecodeDecisionsRLE(enc, prefix)
		if err != nil {
			t.Fatalf("%s: decode with prefix: %v", name, err)
		}
		if !bytes.Equal(got[:2], []byte{9, 9}) || !bytes.Equal(got[2:], want) {
			t.Fatalf("%s: append semantics broken", name)
		}
	}
}

// TestDecisionsCoalescedShrink pins the point of coalescing: on a run-heavy
// vector the RLE form beats the plain payload.
func TestDecisionsCoalescedShrink(t *testing.T) {
	v := bytes.Repeat([]byte{1}, 1024)
	plain := AppendDecisionsPlain(nil, v)
	rle := AppendDecisionsRLE(nil, v)
	if len(rle) >= len(plain) {
		t.Fatalf("coalescing did not shrink a constant vector: plain %d, rle %d", len(plain), len(rle))
	}
}

// uv encodes one uvarint into a freshly allocated slice so test cases never
// alias each other's backing arrays.
func uv(v uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	return append([]byte(nil), b[:binary.PutUvarint(b[:], v)]...)
}

func TestDecodeDecisionsRLERejectsDamage(t *testing.T) {
	good := AppendDecisionsRLE(nil, []byte{1, 1, 2, 2, 2, 3})
	cases := map[string][]byte{
		"empty":         {},
		"truncated run": good[:len(good)-1],
		"count only":    good[:1],
		"trailing":      append(append([]byte{}, good...), 0),
		// A zero run length can never advance the decode.
		"zero run": append(uv(2), 0, 7, 2, 7),
		// Runs that overshoot the declared count.
		"overlong run": append(uv(2), 3, 7),
		// A count beyond the payload cap must be rejected before allocating.
		"giant count": uv(MaxFramePayload + 1),
	}
	for name, enc := range cases {
		dst := []byte{42}
		got, err := DecodeDecisionsRLE(enc, dst)
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
		if len(got) != 1 || got[0] != 42 {
			t.Errorf("%s: dst changed on error: %v", name, got)
		}
	}
}

// FuzzDecisionsRLE differentially checks the RLE codec: every encoded vector
// decodes back to itself, and arbitrary payload bytes either decode cleanly
// or fail wrapping ErrBadFrame without touching dst.
func FuzzDecisionsRLE(f *testing.F) {
	f.Add([]byte{1, 1, 1, 2, 2, 3})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{7}, 300))
	// Truncation-seeded raw payloads.
	enc := AppendDecisionsRLE(nil, []byte{1, 1, 2, 3, 3, 3})
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	f.Add(enc[:1])

	f.Fuzz(func(t *testing.T, data []byte) {
		// Differential: encode(data) must decode back to data exactly.
		enc := AppendDecisionsRLE(nil, data)
		dec, err := DecodeDecisionsRLE(enc, nil)
		if err != nil {
			t.Fatalf("decoding our own encoding failed: %v", err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("round trip changed the bytes: %d != %d", len(dec), len(data))
		}
		// Coalescing must never beat the information content: every run is
		// at least two bytes, so the encoding never exceeds count+header and
		// the fallback comparison in the server stays sound.
		if len(enc) > binary.MaxVarintLen64+2*len(data) {
			t.Fatalf("encoding blew up: %d bytes for %d decisions", len(enc), len(data))
		}
		// Robustness: data as a raw payload must decode or reject cleanly.
		dst := []byte{99}
		got, err := DecodeDecisionsRLE(data, dst)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode error %v does not wrap ErrBadFrame", err)
			}
			if len(got) != 1 || got[0] != 99 {
				t.Fatalf("dst changed on error")
			}
		}
	})
}

// refDecisionsFrame is the decision frame rule written out independently of
// AppendDecisionsFrame: encode the vector run-length, one uvarint and one
// value byte per run, and send that 'd' payload when it is strictly shorter
// than the plain 'D' payload, else send 'D'.
func refDecisionsFrame(decisions []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	rle := append([]byte(nil), tmp[:binary.PutUvarint(tmp[:], uint64(len(decisions)))]...)
	for i := 0; i < len(decisions); {
		j := i + 1
		for j < len(decisions) && decisions[j] == decisions[i] {
			j++
		}
		rle = append(rle, tmp[:binary.PutUvarint(tmp[:], uint64(j-i))]...)
		rle = append(rle, decisions[i])
		i = j
	}
	plain := append(append([]byte(nil), tmp[:binary.PutUvarint(tmp[:], uint64(len(decisions)))]...), decisions...)
	if len(rle) < len(plain) {
		return AppendSessionFrame(nil, StreamFrameDecisionsRLE, rle)
	}
	return AppendSessionFrame(nil, StreamFrameDecisions, plain)
}

// FuzzDecisionsFrame pins AppendDecisionsFrame to refDecisionsFrame byte for
// byte — the run-count gate may skip encoding but never change the choice —
// and checks that the frame decodes back to the vector. Appending extends
// dst, and the scratch handed back is reusable.
func FuzzDecisionsFrame(f *testing.F) {
	alternating := make([]byte, 300)
	for i := range alternating {
		alternating[i] = byte(i % 2)
	}
	f.Add(alternating)
	f.Add(bytes.Repeat([]byte{5}, 1000))
	// Exact ties, which must send 'D': two-byte runs (the gate decides),
	// and a run of 128 followed by 125 single bytes (the gate passes it
	// and the exact sizes decide, 255 bytes each).
	f.Add([]byte{1, 1, 2, 2})
	tie := bytes.Repeat([]byte{0}, 128)
	for i := 0; i < 125; i++ {
		tie = append(tie, byte(1+i%2))
	}
	f.Add(tie)
	f.Add([]byte{})

	var scratch []byte
	f.Fuzz(func(t *testing.T, decisions []byte) {
		want := refDecisionsFrame(decisions)
		var got []byte
		got, scratch = AppendDecisionsFrame([]byte{0xee}, decisions, scratch)
		if got[0] != 0xee {
			t.Fatal("AppendDecisionsFrame clobbered dst")
		}
		if !bytes.Equal(got[1:], want) {
			t.Fatalf("%d decisions: frame %q (%d bytes), reference %q (%d bytes)",
				len(decisions), got[1], len(got)-1, want[0], len(want))
		}
		typ, payload, _, err := ReadSessionFrame(bufio.NewReader(bytes.NewReader(got[1:])), nil)
		if err != nil {
			t.Fatalf("reading the frame back: %v", err)
		}
		var dec []byte
		switch typ {
		case StreamFrameDecisionsRLE:
			dec, err = DecodeDecisionsRLE(payload, nil)
		case StreamFrameDecisions:
			count, n := binary.Uvarint(payload)
			if n <= 0 || count != uint64(len(payload)-n) {
				err = fmt.Errorf("plain payload of %d bytes declares %d decisions", len(payload), count)
			}
			dec = payload[n:]
		default:
			err = fmt.Errorf("frame type %q", typ)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec, decisions) {
			t.Fatalf("frame decodes to %d decisions that differ from the %d sent", len(dec), len(decisions))
		}
		runs := 0
		for i := range decisions {
			if i == 0 || decisions[i] != decisions[i-1] {
				runs++
			}
		}
		if got := countRuns(decisions); got != runs {
			t.Fatalf("countRuns = %d, want %d", got, runs)
		}
	})
}
