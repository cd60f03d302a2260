package trace

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Decision coalescing for stream sessions. A plain 'D' payload carries one
// applied event frame's decisions verbatim — a uvarint count followed by one
// byte per event — which is overwhelmingly redundant: the controller holds a
// steady verdict for long stretches, so a 1024-event frame typically carries
// a handful of distinct values. The 'd' form run-length encodes the same
// vector and decodes to exactly the bytes the plain frame would have carried:
//
//	'd'  run-length encoded:
//	  count  uvarint  (decision bytes this frame decodes to)
//	  runs:  (runLen uvarint >= 1, value byte) pairs; runLens sum to count
//
// The form is self-contained per frame (no state carried across frames), so
// a lost or reordered read cannot desynchronize reconstruction. Worst case (a
// vector that changes every byte) it costs two bytes per decision; senders
// fall back to the plain 'D' form whenever run-length encoding does not
// strictly shrink the payload, which bounds the wire cost at the plain
// encoding.

// AppendDecisionsPlain appends the plain 'D' decisions payload — a uvarint
// count followed by the raw decision bytes — to dst.
func AppendDecisionsPlain(dst []byte, decisions []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(decisions)))]...)
	return append(dst, decisions...)
}

// AppendDecisionsFrame appends the session frame answering one applied event
// frame to dst: run-length 'd' when run-length encoding strictly shrinks the
// payload, else the plain 'D' frame, so the wire cost is bounded by the
// plain encoding. Every run costs at least two bytes and the two forms
// share the count header, so it counts the runs first and, when twice their
// number reaches the number of decisions, sends 'D' without encoding; only
// a vector with fewer runs than half its bytes is encoded, and then the
// exact sizes decide. The choice and the bytes are
// those of encoding every vector and comparing (FuzzDecisionsFrame pins
// both). scratch stages the candidate payload and is returned for reuse;
// the plain frame's header is built in place, so the hot respond path
// allocates nothing.
func AppendDecisionsFrame(dst, decisions, scratch []byte) (wire, newScratch []byte) {
	plainLen := uvarintLen(uint64(len(decisions))) + len(decisions)
	if 2*countRuns(decisions) < len(decisions) {
		scratch = AppendDecisionsRLE(scratch[:0], decisions)
		if len(scratch) < plainLen {
			return AppendSessionFrame(dst, StreamFrameDecisionsRLE, scratch), scratch
		}
	}
	dst = append(dst, StreamFrameDecisions)
	dst = binary.AppendUvarint(dst, uint64(plainLen))
	return AppendDecisionsPlain(dst, decisions), scratch
}

// countRuns returns the number of maximal runs of equal bytes in b. It
// compares eight neighbouring pairs per step: the XOR of the words at i
// and i+1 has a non-zero byte wherever a run ends, and those bytes are
// counted branch-free, since decision runs are often too short for a
// per-byte branch to predict.
func countRuns(b []byte) int {
	if len(b) == 0 {
		return 0
	}
	const lo7 = 0x7f7f7f7f7f7f7f7f
	ends := 0
	i := 0
	for ; i+9 <= len(b); i += 8 {
		x := binary.LittleEndian.Uint64(b[i:]) ^ binary.LittleEndian.Uint64(b[i+1:])
		// A byte's high bit is set iff the byte is non-zero.
		ends += bits.OnesCount64(((x & lo7) + lo7 | x) &^ lo7)
	}
	for ; i+1 < len(b); i++ {
		if b[i] != b[i+1] {
			ends++
		}
	}
	return ends + 1
}

// AppendDecisionsRLE appends the run-length-encoded 'd' payload for
// decisions to dst.
func AppendDecisionsRLE(dst []byte, decisions []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(decisions)))
	for i := 0; i < len(decisions); {
		v := decisions[i]
		j := i + 1
		for j < len(decisions) && decisions[j] == v {
			j++
		}
		if n := j - i; n < 0x80 {
			dst = append(dst, byte(n), v)
		} else {
			dst = append(binary.AppendUvarint(dst, uint64(n)), v)
		}
		i = j
	}
	return dst
}

// DecodeDecisionsRLE decodes a 'd' payload, appending the reconstructed
// decision bytes to dst and returning the extended slice. Malformed input —
// a zero or overlong run, a truncated pair, trailing bytes — fails with an
// error wrapping ErrBadFrame, and dst is returned unchanged. The declared
// count is capped at MaxFramePayload so a corrupt header cannot force a
// giant allocation.
func DecodeDecisionsRLE(payload []byte, dst []byte) ([]byte, error) {
	base := len(dst)
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return dst, fmt.Errorf("%w: reading RLE decisions count", ErrBadFrame)
	}
	if count > MaxFramePayload {
		return dst, fmt.Errorf("%w: RLE decisions count %d exceeds the %d cap",
			ErrBadFrame, count, uint64(MaxFramePayload))
	}
	off := n
	var got uint64
	for got < count {
		runLen, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return dst[:base], fmt.Errorf("%w: reading RLE run length at byte offset %d (%d of %d decisions decoded)",
				ErrBadFrame, off, got, count)
		}
		off += n
		if runLen == 0 || runLen > count-got {
			return dst[:base], fmt.Errorf("%w: RLE run length %d invalid at byte offset %d (%d of %d decisions decoded)",
				ErrBadFrame, runLen, off, got, count)
		}
		if off >= len(payload) {
			return dst[:base], fmt.Errorf("%w: RLE run value truncated at byte offset %d (%d of %d decisions decoded)",
				ErrBadFrame, off, got, count)
		}
		v := payload[off]
		off++
		for i := uint64(0); i < runLen; i++ {
			dst = append(dst, v)
		}
		got += runLen
	}
	if off != len(payload) {
		return dst[:base], fmt.Errorf("%w: %d trailing bytes after %d RLE decisions",
			ErrBadFrame, len(payload)-off, count)
	}
	return dst, nil
}
