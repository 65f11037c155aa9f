package cloud

// Tags attribute metered usage to course structure: the simulator sets
// "lab" and "student" so the meter can split hours the way the paper
// did by naming convention, and traced and spot launches stamp their
// own keys. A Tags value cannot be changed once built, so one value is
// shared, not copied, by a launch spec, its instance, its meter record
// and a lease reservation: a caller that reuses what it built the tags
// from cannot rewrite the attribution of usage already metered. The
// zero value has no tags.
type Tags struct {
	kv []string // key, value, key, value, …; never written once built
}

// NewTags returns the tags given as key/value pairs; a later pair
// replaces an earlier one with the same key. It copies kv, so the caller
// may reuse its slice. An odd number of arguments panics.
func NewTags(kv ...string) Tags { return Tags{}.With(kv...) }

// Get returns the value of key, or "" when it is not set.
func (t Tags) Get(key string) string {
	for i := 0; i < len(t.kv); i += 2 {
		if t.kv[i] == key {
			return t.kv[i+1]
		}
	}
	return ""
}

// With returns t plus the given key/value pairs, a pair replacing any
// earlier value of its key. t is unchanged: the result has storage of
// its own, made with one allocation.
func (t Tags) With(kv ...string) Tags {
	if len(kv)%2 != 0 {
		panic("cloud: tags need key/value pairs")
	}
	if len(kv) == 0 {
		return t
	}
	out := make([]string, len(t.kv), len(t.kv)+len(kv))
	copy(out, t.kv)
next:
	for i := 0; i < len(kv); i += 2 {
		for j := 0; j < len(out); j += 2 {
			if out[j] == kv[i] {
				out[j+1] = kv[i+1]
				continue next
			}
		}
		out = append(out, kv[i], kv[i+1])
	}
	return Tags{kv: out}
}
