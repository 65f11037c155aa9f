package cloud

// UsageKind classifies a metered resource for cost attribution.
type UsageKind int

const (
	UsageInstance UsageKind = iota
	UsageFloatingIP
	UsageBlockStorageGB
	UsageObjectStorageGB
)

func (k UsageKind) String() string {
	switch k {
	case UsageInstance:
		return "instance"
	case UsageFloatingIP:
		return "floating_ip"
	case UsageBlockStorageGB:
		return "block_gb"
	case UsageObjectStorageGB:
		return "object_gb"
	default:
		return "unknown"
	}
}

// UsageRecord is one metered interval of resource consumption. For
// instance and floating-IP records, Quantity is 1 and Hours() gives the
// billable hours; for storage records Quantity is the size in GB.
type UsageRecord struct {
	Kind     UsageKind
	Project  string
	Resource string // flavor/node-type name, or "" for IPs/storage
	Tags     Tags
	Quantity float64
	Start    float64
	End      float64 // -1 while open
}

// Hours returns the record's duration as of time now (open records meter
// up to now).
func (r UsageRecord) Hours(now float64) float64 {
	end := r.End
	if end < 0 {
		end = now
	}
	if end < r.Start {
		return 0
	}
	return end - r.Start
}

// Meter accumulates usage records for later aggregation. It is not
// concurrency-safe on its own; Cloud serializes access.
type Meter struct {
	records []*UsageRecord
}

// Open starts a new metering interval and returns the record so the
// caller can close it later. The record shares tags, which no caller
// can change afterwards, so the attribution of usage already metered
// stays as it was opened.
func (m *Meter) Open(kind UsageKind, project, resource string, tags Tags, qty, start float64) *UsageRecord {
	r := &UsageRecord{Kind: kind, Project: project, Resource: resource,
		Tags: tags, Quantity: qty, Start: start, End: -1}
	m.records = append(m.records, r)
	return r
}

// Close ends a metering interval at time end. Closing an already-closed
// record is a no-op (idempotent deletes).
func (m *Meter) Close(r *UsageRecord, end float64) {
	if r != nil && r.End < 0 {
		r.End = end
	}
}

// Records returns value copies of all records matching the filter (nil
// filter = all). Copies keep aggregations stable: a record returned here
// is a snapshot, unaffected by later Close calls on the live record. The
// filter runs once per record, so it may count; with no filter the
// result is sized up front and is the one allocation.
func (m *Meter) Records(filter func(*UsageRecord) bool) []UsageRecord {
	var out []UsageRecord
	if filter == nil {
		out = make([]UsageRecord, 0, len(m.records))
	}
	for _, r := range m.records {
		if filter == nil || filter(r) {
			out = append(out, *r)
		}
	}
	return out
}

// Each calls fn on every record in metering order. Unlike Records it
// copies nothing: fn sees the live record and must not modify or retain
// it.
func (m *Meter) Each(fn func(*UsageRecord)) {
	for _, r := range m.records {
		fn(r)
	}
}

// TotalHours sums Hours(now) over records matching the filter.
func (m *Meter) TotalHours(now float64, filter func(*UsageRecord) bool) float64 {
	var total float64
	for _, r := range m.records {
		if filter == nil || filter(r) {
			total += r.Hours(now)
		}
	}
	return total
}

// HoursByResource aggregates instance hours by flavor/node-type name for
// records of the given kind matching the filter.
func (m *Meter) HoursByResource(now float64, kind UsageKind, filter func(*UsageRecord) bool) map[string]float64 {
	out := map[string]float64{}
	for _, r := range m.records {
		if r.Kind != kind {
			continue
		}
		if filter != nil && !filter(r) {
			continue
		}
		out[r.Resource] += r.Hours(now)
	}
	return out
}
