package trace

import (
	"encoding/binary"
	"fmt"
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
// frame to dst: run-length 'd', falling back to the plain 'D' frame whenever
// run-length encoding does not strictly shrink the payload, so the wire cost
// is bounded by the plain encoding. scratch stages the candidate payload and
// is returned for reuse; the plain frame's header is built in place, so the
// hot respond path allocates nothing.
func AppendDecisionsFrame(dst, decisions, scratch []byte) (wire, newScratch []byte) {
	scratch = AppendDecisionsRLE(scratch[:0], decisions)
	plainLen := uvarintLen(uint64(len(decisions))) + len(decisions)
	if len(scratch) < plainLen {
		return AppendSessionFrame(dst, StreamFrameDecisionsRLE, scratch), scratch
	}
	dst = append(dst, StreamFrameDecisions)
	dst = binary.AppendUvarint(dst, uint64(plainLen))
	return AppendDecisionsPlain(dst, decisions), scratch
}

// AppendDecisionsRLE appends the run-length-encoded 'd' payload for
// decisions to dst.
func AppendDecisionsRLE(dst []byte, decisions []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(decisions)))]...)
	for i := 0; i < len(decisions); {
		j := i + 1
		for j < len(decisions) && decisions[j] == decisions[i] {
			j++
		}
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(j-i))]...)
		dst = append(dst, decisions[i])
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
