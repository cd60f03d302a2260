package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// APIVersion names the HTTP API generation every /v1/* endpoint belongs to.
const APIVersion = "v1"

// ParamsHash is a deterministic 64-bit digest of the controller parameters:
// FNV-1a over a fixed-order binary serialization of every core.Params field.
// Two processes agree on the hash exactly when they would compute identical
// decisions for identical event sequences, so the stream handshake, the
// optional params pin on /v1/ingest, and reactiveload -verify all use it to
// reject configuration skew up front instead of silently diverging.
func ParamsHash(p core.Params) uint64 {
	var buf [8]byte
	h := uint64(fnvOffset64)
	mix := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		for _, b := range buf {
			h ^= uint64(b)
			h *= fnvPrime64
		}
	}
	mixBool := func(b bool) {
		if b {
			mix(1)
		} else {
			mix(0)
		}
	}
	mix(p.MonitorPeriod)
	mix(math.Float64bits(p.SelectThreshold))
	mix(uint64(p.EvictThreshold))
	mix(uint64(p.MisspecStep))
	mix(uint64(p.CorrectStep))
	mix(p.WaitPeriod)
	mix(uint64(p.MaxOptimizations))
	mix(p.OptLatency)
	mixBool(p.NoEviction)
	mixBool(p.NoRevisit)
	mixBool(p.EvictBySampling)
	mix(p.SampleLen)
	mix(p.SamplePeriod)
	mix(math.Float64bits(p.EvictBias))
	mix(uint64(p.MonitorSampleRate))
	return h
}

// ParamsPolicyHash is ParamsHash extended with the daemon's policy: for the
// default reactive policy it equals ParamsHash(p) exactly — so every
// pre-policy client, WAL segment header, and replication peer keeps matching
// a reactive daemon unchanged — and for any other policy the registered name
// is mixed in, so a client pinned to one policy's decisions is rejected by a
// daemon running another, through the same params-pin machinery as a
// parameter mismatch.
func ParamsPolicyHash(p core.Params, policy string) uint64 {
	h := ParamsHash(p)
	if policy == "" || policy == core.PolicyReactive {
		return h
	}
	for i := 0; i < len(policy); i++ {
		h ^= uint64(policy[i])
		h *= fnvPrime64
	}
	return h
}

// formatParamsHash renders a params hash the way /v1/info and the ingest
// params pin carry it: fixed-width hex, safe for JSON (a raw uint64 would not
// survive every JSON reader's float64 round trip).
func formatParamsHash(h uint64) string {
	const hexDigits = 16
	s := strconv.FormatUint(h, 16)
	for len(s) < hexDigits {
		s = "0" + s
	}
	return s
}

// parseParamsHash parses formatParamsHash's output.
func parseParamsHash(s string) (uint64, error) {
	return strconv.ParseUint(s, 16, 64)
}

// ParseInfoParamsHash extracts the numeric controller-parameter hash from an
// Info response, for handing to DialStream or comparing against ParamsHash.
func ParseInfoParamsHash(info Info) (uint64, error) {
	h, err := parseParamsHash(info.ParamsHash)
	if err != nil {
		return 0, fmt.Errorf("server: bad params hash %q in info: %w", info.ParamsHash, err)
	}
	return h, nil
}

// Info is the JSON answer of GET /v1/info: everything a client needs to
// check, before sending a single event, that it and the daemon will agree on
// decisions and wire format.
type Info struct {
	// APIVersion is the HTTP API generation ("v1").
	APIVersion string `json:"api_version"`
	// ProtoVersion is the stream session protocol version.
	ProtoVersion uint32 `json:"proto_version"`
	// ParamsHash is the controller-parameter digest, in fixed-width hex.
	ParamsHash string `json:"params_hash"`
	// Shards is the controller table's lock-stripe count.
	Shards int `json:"shards"`
	// Draining reports whether the daemon is draining for shutdown.
	Draining bool `json:"draining"`
	// Mode is "primary" for a writable daemon, "replica" while it is
	// read-only and applying a primary's shipped WAL.
	Mode string `json:"mode"`
	// Kinds lists the speculation kinds this daemon serves, in trace.Kind
	// order.
	Kinds []string `json:"kinds"`
	// Policy is the registered policy name every table entry runs.
	Policy string `json:"policy"`
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, Info{
		APIVersion:   APIVersion,
		ProtoVersion: trace.StreamProtoVersion,
		ParamsHash:   formatParamsHash(s.paramsHash),
		Shards:       s.table.Shards(),
		Draining:     s.draining.Load(),
		Mode:         s.Mode(),
		Kinds:        s.KindNames(),
		Policy:       s.table.Policy(),
	})
}
