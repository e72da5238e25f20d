package main

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestPercentileAgainstSortedReference(t *testing.T) {
	r := newRNG(7, 0)
	for _, n := range []int{1, 2, 10, 11, 100, 999, 1000, 4096} {
		v := make([]uint32, n)
		for i := range v {
			v[i] = uint32(r.intn(1 << 20))
		}
		slices.Sort(v)
		for _, p := range []float64{1, 50, 90, 99, 99.9, 100} {
			// Reference: the smallest sample with at least p% of the
			// samples at or below it, found by counting.
			want := v[n-1]
			for i := range v {
				if float64(i+1)*100 >= p*float64(n)-1e-7 {
					want = v[i]
					break
				}
			}
			if got := percentile(v, p); got != want {
				t.Errorf("n=%d p=%v: got %d, want %d", n, p, got, want)
			}
		}
	}
	if got := percentile([]uint32{}, 50); got != 0 {
		t.Errorf("empty: got %d", got)
	}
	v := make([]uint32, 1000)
	for i := range v {
		v[i] = uint32(i)
	}
	if level, x, ok := tailPercentile(v); !ok || x != 989 || level != 99 {
		t.Errorf("tailPercentile: level %v value %d ok %v, want 99, 989, true", level, x, ok)
	}
	if _, _, ok := tailPercentile(v[:10]); ok {
		t.Error("tailPercentile of 10 samples: want !ok")
	}
}

// Python: statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
// → [3.5, 24.0, 160.0]
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("got %v, %v; want 3.5, 160", q1, q3)
	}
	if s := spread([]float64{10, 10, 10}); s != 0 {
		t.Errorf("spread of constants = %v", s)
	}
}

func firstOps(s *spec, seed, worker uint64, n int) []op {
	var z *zipf
	if s.theta > 0 {
		z = newZipf(s.keys, s.theta)
	}
	g := newOpGen(s, z, seed, worker)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, s := range workloads {
		a, b := firstOps(s, 1, 0, 10000), firstOps(s, 1, 0, 10000)
		if !slices.Equal(a, b) {
			t.Errorf("%s: same seed gave different ops", s.name)
		}
		if slices.Equal(a, firstOps(s, 2, 0, 10000)) {
			t.Errorf("%s: different seeds gave the same ops", s.name)
		}
		if slices.Equal(a, firstOps(s, 1, 1, 10000)) {
			t.Errorf("%s: different workers gave the same ops", s.name)
		}
		var kinds [numOpKinds]int
		for _, o := range a {
			kinds[o.kind]++
			if o.idx >= s.keys {
				t.Fatalf("%s: index %d out of range", s.name, o.idx)
			}
			if (o.kind == opPut || o.kind == opPutIfAbsent) && (o.vlen < s.valMin || o.vlen > s.valMax) {
				t.Fatalf("%s: value length %d out of range", s.name, o.vlen)
			}
		}
		for k, share := range s.mix {
			if got := float64(kinds[k]) / 100; math.Abs(got-float64(share)) > 2 {
				t.Errorf("%s: %v is %.1f%% of ops, want %d%%", s.name, opKind(k), got, share)
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	const n, draws = 100_000, 200_000
	z := newZipf(n, 0.99)
	r := newRNG(3, 0)
	top, first := 0, 0
	for i := 0; i < draws; i++ {
		k := z.rank(&r)
		if k >= n {
			t.Fatalf("rank %d out of range", k)
		}
		if k < n/100 {
			top++
		}
		if k == 0 {
			first++
		}
	}
	// With theta 0.99 the hottest 1% of 100k ranks draws about 63% of
	// the traffic and rank 0 about 8%; uniform would give 1% and 0.001%.
	if share := float64(top) / draws; share < 0.55 || share > 0.72 {
		t.Errorf("top 1%% of ranks drew %.3f of the traffic", share)
	}
	if share := float64(first) / draws; share < 0.06 || share > 0.11 {
		t.Errorf("rank 0 drew %.3f of the traffic", share)
	}
}

func TestKeysAndValues(t *testing.T) {
	a, b := newKey(), newKey()
	setKey(a, 255)
	setKey(b, 256)
	if bytes.Compare(a, b) >= 0 || !validKey(a) || keyIndex(b) != 256 {
		t.Error("keys: byte order must equal numeric order")
	}
	for _, n := range []int{16, 64, 127, 128, 2048} {
		v := make([]byte, n)
		fillValue(v, 42, 7)
		if !checkValue(v, 42, 16, 2048) {
			t.Errorf("len %d: fresh value fails its own check", n)
		}
		if checkStamp(v, 43, 16, 2048) {
			t.Errorf("len %d: wrong index accepted", n)
		}
		if n > stampLen {
			v[n-1] ^= 1
			if checkValue(v, 42, 16, 2048) {
				t.Errorf("len %d: torn value accepted", n)
			}
		}
	}
	p := permutation(1000, newRNG(1, 0))
	q := slices.Clone(p)
	slices.Sort(q)
	for i, x := range q {
		if int(x) != i {
			t.Fatal("permutation is not a permutation")
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	key := newKey()
	setKey(key, 99)
	val := make([]byte, 128)
	fillValue(val, 99, 1)
	f := newFrame([]byte("SET"), key, val)
	if !bytes.Equal(f.b, appendCommand(nil, []byte("SET"), key, val)) {
		t.Fatal("newFrame and appendCommand disagree")
	}
	for i, a := range [][]byte{[]byte("SET"), key, val} {
		if got := f.b[f.args[i]:][:len(a)]; !bytes.Equal(got, a) {
			t.Errorf("arg %d offset is wrong: %q", i, got)
		}
	}
	// Patch in place, as the hot path does, and decode as a reply array.
	out, at := f.appendTo(nil)
	setKey(out[at+f.args[1]:], 100)
	rd := newReplyReader(bytes.NewReader(out))
	if n, err := rd.array(); err != nil || n != 3 {
		t.Fatalf("array: %d, %v", n, err)
	}
	buf := make([]byte, 0, 128)
	for i, want := range []string{"SET", "", ""} {
		got, err := rd.bulk(buf)
		if err != nil {
			t.Fatalf("bulk %d: %v", i, err)
		}
		switch i {
		case 0:
			if string(got) != want {
				t.Errorf("verb %q", got)
			}
		case 1:
			if !validKey(got) || keyIndex(got) != 100 {
				t.Errorf("patched key decodes to index %d", keyIndex(got))
			}
		case 2:
			if !checkValue(got, 99, 128, 128) {
				t.Error("value did not survive the round trip")
			}
		}
	}
}

func TestReplyReaderChecksTypes(t *testing.T) {
	rd := func(s string) *replyReader { return newReplyReader(strings.NewReader(s)) }
	if err := rd("+OK\r\n").simple("OK"); err != nil {
		t.Error(err)
	}
	if err := rd("-ERR nope\r\n").simple("OK"); err == nil {
		t.Error("error reply accepted as +OK")
	}
	if _, err := rd("$-1\r\n").bulk(make([]byte, 0, 8)); err == nil {
		t.Error("nil bulk accepted")
	}
	if _, err := rd("$3\r\nabcXY").bulk(make([]byte, 0, 8)); err == nil {
		t.Error("bulk without CRLF accepted")
	}
	if _, err := rd("$9\r\n123456789\r\n").bulk(make([]byte, 0, 8)); err == nil {
		t.Error("oversized bulk accepted")
	}
	if _, err := rd(":5\r\n").array(); err == nil {
		t.Error("integer accepted as array")
	}
	if n, err := rd("*2\r\n").array(); err != nil || n != 2 {
		t.Errorf("array header: %d, %v", n, err)
	}
}

func TestRecorderMarksSkippedWindows(t *testing.T) {
	var r recorder
	r.reset(3, 0)
	r.enter(0)
	r.read.add(10)
	r.enter(2) // slept through window 1
	r.read.add(20)
	r.enter(phaseStop)
	if got := r.read.mark; !slices.Equal(got, []int{0, 1, 1, 2}) {
		t.Errorf("marks %v, want [0 1 1 2]", got)
	}
}

// BENCHMARK.json and the program's own metric tables must list the same
// names with the same units, and the same workloads.
func TestMetricNamesMatchContract(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind   string
		listed []contractMetric
		units  map[string]string
	}{{"end_to_end", c.EndToEnd, endToEndUnits}, {"per_layer", c.PerLayer, perLayerUnits}} {
		seen := map[string]bool{}
		for _, m := range tc.listed {
			if !metricNameRE.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", tc.kind, m.Name)
			}
			if unit, ok := tc.units[m.Name]; !ok {
				t.Errorf("%s: %s is in BENCHMARK.json but the program never reports it", tc.kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the program", tc.kind, m.Name, m.Unit, unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s: better = %q", tc.kind, m.Name, m.Better)
			}
			seen[m.Name] = true
		}
		for name := range tc.units {
			if !seen[name] {
				t.Errorf("%s: %s is reported but not in BENCHMARK.json", tc.kind, name)
			}
		}
	}
	if len(c.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		if findSpec(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q does not exist", w.Name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, h host, throughput, p50 []float64) string {
		m := metricSet{}
		m.set("throughput_ops_s", throughput...)
		m.set("read_p50_us", p50...)
		path := dir + "/" + name
		if err := writeReport(path, report{Host: h, Runs: []result{{Workload: "point-read", Metrics: m}}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	h := host{Workers: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}
	a := mk("a.json", h, []float64{100, 101, 99, 100, 100}, []float64{2, 2, 2, 2, 2})
	// Throughput half of a's: worse. Latency medians equal but b's
	// windows are all over the place: unresolved.
	b := mk("b.json", h, []float64{50, 51, 49, 50, 50}, []float64{1, 3, 2, 0.5, 4})
	var out bytes.Buffer
	ok, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("a halved throughput must fail the comparison")
	}
	for _, want := range []string{"worse", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks verdict %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if ok, err := compareFiles(&out, a, a); err != nil || !ok || strings.Contains(out.String(), "worse") {
		t.Errorf("a file against itself: ok=%v err=%v\n%s", ok, err, out.String())
	}
	h.Workers = 1
	if _, err := compareFiles(&out, a, mk("c.json", h, []float64{100}, []float64{2})); err == nil {
		t.Error("files from different host shapes must be refused")
	}
	// Appending keeps earlier runs.
	if err := writeReport(a, report{Host: host{Workers: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}, Runs: []result{{Workload: "scan-plain"}}}); err != nil {
		t.Fatal(err)
	}
	if r, err := readReport(a); err != nil || len(r.Runs) != 2 {
		t.Errorf("append: %d runs, err %v", len(r.Runs), err)
	}
}
