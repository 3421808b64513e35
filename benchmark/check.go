package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/graph"
)

// derive gives each generator its own stream from the one -seed argument
// (FNV-1a over the label, finished with a splitmix64 round).
func derive(seed uint64, what string) uint64 {
	h := uint64(0xcbf29ce484222325) ^ seed
	for i := 0; i < len(what); i++ {
		h ^= uint64(what[i])
		h *= 0x100000001b3
	}
	h += 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

func writeU32s(h hash.Hash, xs []uint32) {
	buf := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], x)
	}
	h.Write(buf)
}

func writeF64s(h hash.Hash, xs []float64) {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	h.Write(buf)
}

// digestResult hashes a result's output arrays only: no timing, counters,
// algorithm name or trace, so a later model change leaves it alone. cc
// labels are hashed as a partition (each vertex mapped to the smallest
// vertex of its component) because pointer jumping and label propagation
// may pick different representatives.
func digestResult(res *analytics.Result) string {
	h := sha256.New()
	h.Write([]byte(res.App))
	writeU32s(h, res.Dist)
	if res.Labels != nil {
		first := make(map[uint32]uint32)
		canon := make([]uint32, len(res.Labels))
		for v, l := range res.Labels {
			rep, ok := first[l]
			if !ok {
				rep = uint32(v)
				first[l] = rep
			}
			canon[v] = rep
		}
		writeU32s(h, canon)
	}
	writeF64s(h, res.Rank)
	writeF64s(h, res.Centrality)
	if res.InCore != nil {
		bits := make([]byte, len(res.InCore))
		for i, b := range res.InCore {
			if b {
				bits[i] = 1
			}
		}
		h.Write(bits)
	}
	var tri [8]byte
	binary.LittleEndian.PutUint64(tri[:], res.Triangles)
	h.Write(tri[:])
	return hex.EncodeToString(h.Sum(nil))
}

// digestBody digests the output arrays of a served result body.
func digestBody(body []byte) (string, *analytics.Result, error) {
	res, err := analytics.UnmarshalResult(body)
	if err != nil {
		return "", nil, err
	}
	return digestResult(res), res, nil
}

func bytesDigest(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
}

// graphDigest hashes the out-direction CSR, the identity of a generated
// input.
func graphDigest(g *graph.Graph) string {
	h := sha256.New()
	buf := make([]byte, 8*len(g.OutOffsets))
	for i, x := range g.OutOffsets {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(x))
	}
	h.Write(buf)
	writeU32s(h, g.OutEdges)
	return hex.EncodeToString(h.Sum(nil))
}

// checker counts operations and output-check failures; it fails closed: an
// op whose output could not be checked is a failed op.
type checker struct {
	attempted int
	failed    int
	notes     []string
}

func (c *checker) op(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.fail(format, args...)
	}
}

// fail records a failure that is not a counted op of its own (a cross
// check over ops already counted).
func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// rollup is one digest over a set of named digests, used to pin a serving
// workload's many reference outputs as one line.
func rollup(digests map[string]string) string {
	keys := make([]string, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, digests[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// expectedFile pins the reference output digests of one seed at one run
// length (the serving workloads' event and batch counts follow -seconds).
type expectedFile struct {
	Seed    uint64                       `json:"seed"`
	Seconds float64                      `json:"seconds"`
	Digests map[string]map[string]string `json:"digests"` // workload -> op -> digest
}

func expectedPath() string { return filepath.Join(benchDir, "expected.json") }

func loadExpected() (*expectedFile, error) {
	data, err := os.ReadFile(expectedPath())
	if err != nil {
		return nil, err
	}
	var e expectedFile
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath(), err)
	}
	return &e, nil
}

// checkPinned compares a run's reference digests with the pinned ones when
// the run's seed and length are the pinned ones. With update set it
// rewrites the pins for this workload instead.
func checkPinned(c *checker, workload string, seed uint64, seconds float64, got map[string]string, update bool) error {
	e, err := loadExpected()
	if err != nil {
		if !update {
			return err
		}
		e = &expectedFile{Digests: map[string]map[string]string{}}
	}
	if update {
		if e.Seed != seed || e.Seconds != seconds {
			e.Digests = map[string]map[string]string{}
		}
		e.Seed, e.Seconds = seed, seconds
		e.Digests[workload] = got
		data, err := json.MarshalIndent(e, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(expectedPath(), append(data, '\n'), 0o644)
	}
	if seed != e.Seed || seconds != e.Seconds {
		return nil
	}
	want := e.Digests[workload]
	if len(want) != len(got) {
		c.fail("%s: %d pinned digests, run produced %d", workload, len(want), len(got))
	}
	for op, d := range got {
		if want[op] != d {
			c.fail("%s/%s: reference digest %s differs from the pinned %s", workload, op, d, want[op])
		}
	}
	return nil
}
