package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestLabeledRoundTrip(t *testing.T) {
	name := Labeled("cloud.launches",
		Attr{Key: "project", Value: "mlops"},
		Attr{Key: "flavor", Value: "m1.large"})
	if name != "cloud.launches{flavor=m1.large,project=mlops}" {
		t.Errorf("Labeled = %q", name)
	}
	base, attrs := ParseLabeled(name)
	if base != "cloud.launches" || len(attrs) != 2 ||
		attrs[0] != (Attr{Key: "flavor", Value: "m1.large"}) ||
		attrs[1] != (Attr{Key: "project", Value: "mlops"}) {
		t.Errorf("ParseLabeled = %q, %+v", base, attrs)
	}
	// Order-insensitive: same set, same instrument name.
	other := Labeled("cloud.launches",
		Attr{Key: "flavor", Value: "m1.large"},
		Attr{Key: "project", Value: "mlops"})
	if other != name {
		t.Errorf("label order changed the name: %q vs %q", other, name)
	}
	if got := Labeled("plain"); got != "plain" {
		t.Errorf("no labels: %q", got)
	}
}

func TestLabeledSanitizesStructuralChars(t *testing.T) {
	name := Labeled("m", Attr{Key: "a b", Value: "x{y}=z,w"})
	if name != "m{a_b=x_y__z_w}" {
		t.Errorf("sanitized = %q", name)
	}
	// Sanitized names still parse cleanly.
	base, attrs := ParseLabeled(name)
	if base != "m" || len(attrs) != 1 || attrs[0].Key != "a_b" {
		t.Errorf("parse after sanitize = %q, %+v", base, attrs)
	}
}

func TestParseLabeledMalformed(t *testing.T) {
	for _, name := range []string{
		"plain", "trailing{", "m{noequals}", "m{=v}", "m{}x",
	} {
		base, attrs := ParseLabeled(name)
		if base != name || attrs != nil {
			t.Errorf("%q: parsed as %q %+v, want passthrough", name, base, attrs)
		}
	}
	// An empty label block is a flat name.
	if base, attrs := ParseLabeled("m{}"); base != "m" || attrs != nil {
		t.Errorf("empty block: %q %+v", base, attrs)
	}
}

// TestHistogramSnapshotConsistentUnderObserves pins the invariant the
// tsdb collector relies on: a histogram snapshot's bucket counts always
// sum to its Count, even while other goroutines are observing. (Observe
// and the snapshot path take the same per-histogram lock, so a torn
// read would be a locking regression.)
func TestHistogramSnapshotConsistentUnderObserves(t *testing.T) {
	bus := New()
	h := bus.Histogram("lat", ExpBuckets(0.001, 2, 10))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			v := float64(seed+1) * 0.0003
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(v)
				v *= 1.1
				if v > 10 {
					v = 0.0001
				}
			}
		}(w)
	}
	for i := 0; i < 500; i++ {
		m, ok := Find(bus.Snapshot(), "lat")
		if !ok {
			t.Fatal("histogram missing")
		}
		var sum int64
		for _, b := range m.Buckets {
			if b.Count < 0 {
				t.Fatalf("negative bucket count: %+v", b)
			}
			sum += b.Count
		}
		if sum != m.Count {
			t.Fatalf("torn snapshot: buckets sum to %d, Count = %d", sum, m.Count)
		}
	}
	close(stop)
	wg.Wait()
}

// labeledRef is Labeled as it was before the stack-array rewrite: a map
// from sanitized key to sanitized value, a sorted key slice and a
// growing strings.Builder. Kept as the reference for FuzzLabeled.
func labeledRef(base string, labels ...Attr) string {
	if len(labels) == 0 {
		return base
	}
	kv := make(map[string]string, len(labels))
	keys := make([]string, 0, len(labels))
	for _, l := range labels {
		k := sanitizeRef(l.Key)
		if _, seen := kv[k]; !seen {
			keys = append(keys, k)
		}
		kv[k] = sanitizeRef(l.Value)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(kv[k])
	}
	b.WriteByte('}')
	return b.String()
}

func sanitizeRef(s string) string {
	var b *strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{', '}', '=', ',', ' ', '\t', '\n':
			if b == nil {
				b = &strings.Builder{}
				b.WriteString(s[:i])
			}
			b.WriteByte('_')
		default:
			if b != nil {
				b.WriteByte(s[i])
			}
		}
	}
	if b == nil {
		return s
	}
	return b.String()
}

// FuzzLabeled checks Labeled against the map-based reference. The fuzzed
// string is cut at ';' into keys and values, so one input spans zero to
// many labels, duplicate keys (raw, or equal only once sanitized),
// structural characters, non-ASCII and invalid UTF-8, and more labels
// than the stack array holds.
func FuzzLabeled(f *testing.F) {
	f.Add("cloud.launches", "project;mlops;flavor;m1.large")
	f.Add("m", "a b;x{y}=z,w;a_b;later wins")
	f.Add("m", "k;1;k;2;k;3")
	f.Add("m", "\xff\xfe;\x80;ü;€;;empty key")
	f.Add("m", "a;1;b;2;c;3;d;4;e;5;f;6;g;7;h;8;i;9;j;10;a;11")
	f.Add("", "z\t;\n;z ;v")
	f.Fuzz(func(t *testing.T, base, spec string) {
		parts := strings.Split(spec, ";")
		var labels []Attr
		for i := 0; i+1 < len(parts); i += 2 {
			labels = append(labels, Attr{Key: parts[i], Value: parts[i+1]})
		}
		if got, want := Labeled(base, labels...), labeledRef(base, labels...); got != want {
			t.Fatalf("Labeled(%q, %q) = %q, reference %q", base, labels, got, want)
		}
	})
}

// TestLabeledAllocs is Labeled's allocation contract: the name is the
// only allocation, with up to the stack array's eight labels. The fewest
// over many single runs leaves out race-mode noise.
func TestLabeledAllocs(t *testing.T) {
	var name string
	fewest := math.Inf(1)
	for i := 0; i < 50; i++ {
		fewest = min(fewest, testing.AllocsPerRun(1, func() {
			name = Labeled("orchestrator.pods",
				String("phase", "Running"), String("node", "node 3"), String("deployment", "train"))
		}))
	}
	if fewest > 1 {
		t.Errorf("Labeled allocates %v, want <= 1", fewest)
	}
	if name != "orchestrator.pods{deployment=train,node=node_3,phase=Running}" {
		t.Errorf("Labeled = %q", name)
	}
}
