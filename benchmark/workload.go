package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"kv3d/internal/sim"
	"kv3d/internal/workload"
)

// headerLen is the (rank, length) prefix every value carries, so a GET
// can be checked whichever write it observes.
const headerLen = 8

// data is everything one run sends, made from the seed before the clock
// starts: the server sees only these inputs, and the timed loop allocates
// nothing of its own.
type data struct {
	spec *spec
	// keys is the shared key table, key:%08d by rank (rank 0 is hottest).
	keys []string
	// pattern is the body every value is cut from: a value of length n is
	// its header followed by pattern[headerLen:n].
	pattern []byte
	// preload is the value length each key is loaded with.
	preload []int32
	// streams holds one pre-generated op stream per connection.
	streams []stream
}

// A stream is one connection's calls. Call i fetches (or sets) the keys
// ranks[i*burst:(i+1)*burst]; sizes is nil on read-only workloads, else
// sizes[i] is the value length of a set and 0 for a get.
type stream struct {
	ranks []int32
	sizes []int32
}

// subRand gives each concern its own stream of one seed.
func subRand(seed, lane uint64) *sim.Rand {
	return sim.NewRand(seed*0x9e3779b97f4a7c15 + lane)
}

func (s *spec) clampSize(n int64) int32 {
	if n < headerLen {
		n = headerLen
	}
	if n > int64(s.maxValue) {
		n = int64(s.maxValue)
	}
	return int32(n)
}

// buildData generates the inputs of one run: conns streams of calls calls.
func buildData(s *spec, seed uint64, conns, calls int) (*data, error) {
	d := &data{
		spec:    s,
		keys:    make([]string, s.keys),
		pattern: make([]byte, s.maxValue),
		preload: make([]int32, s.keys),
		streams: make([]stream, conns),
	}
	for i := range d.keys {
		d.keys[i] = fmt.Sprintf("key:%08d", i)
	}
	r := subRand(seed, 0)
	for i := 0; i+8 <= len(d.pattern); i += 8 {
		binary.LittleEndian.PutUint64(d.pattern[i:], r.Uint64())
	}
	r = subRand(seed, 1)
	for i := range d.preload {
		d.preload[i] = s.clampSize(s.sizes.Sample(r))
	}
	var z *workload.Zipf
	if s.zipf > 0 {
		var err error
		if z, err = workload.NewZipf(s.zipf, s.keys); err != nil {
			return nil, err
		}
	}
	// The server is idle while the streams are made, so make them side by side.
	var wg sync.WaitGroup
	for c := range d.streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d.streams[c] = genStream(s, z, subRand(seed, 2+uint64(c)), calls)
		}(c)
	}
	wg.Wait()
	return d, nil
}

func genStream(s *spec, z *workload.Zipf, r *sim.Rand, calls int) stream {
	st := stream{ranks: make([]int32, calls*s.burst)}
	if s.setShare > 0 {
		st.sizes = make([]int32, calls)
	}
	draw := func() int32 {
		if z != nil {
			return int32(z.Sample(r))
		}
		return int32(r.Intn(s.keys))
	}
	for i := 0; i < calls; i++ {
		burst := st.ranks[i*s.burst : (i+1)*s.burst]
		for j := range burst {
			// The clients drop duplicate keys from a multi-get, so a
			// duplicate would make the burst shorter than its count.
			rank := draw()
			for slices.Contains(burst[:j], rank) {
				rank = draw()
			}
			burst[j] = rank
		}
		if st.sizes != nil && r.Float64() < s.setShare {
			st.sizes[i] = s.clampSize(s.sizes.Sample(r))
		}
	}
	return st
}

// fillValue writes the header for (rank, n) into buf, whose body already
// holds the pattern, and returns the value buf[:n].
func fillValue(buf []byte, rank int32, n int32) []byte {
	binary.BigEndian.PutUint32(buf, uint32(rank))
	binary.BigEndian.PutUint32(buf[4:], uint32(n))
	return buf[:n]
}

// checkValue reports whether v is a value some write of key rank could
// have stored. The header is always checked; the body only when full,
// because comparing it costs as much as the copy the rungs time.
func (d *data) checkValue(v []byte, rank int32, full bool) bool {
	if len(v) < headerLen || len(v) > len(d.pattern) ||
		binary.BigEndian.Uint32(v) != uint32(rank) ||
		binary.BigEndian.Uint32(v[4:]) != uint32(len(v)) {
		return false
	}
	return !full || bytes.Equal(v[headerLen:], d.pattern[headerLen:len(v)])
}
