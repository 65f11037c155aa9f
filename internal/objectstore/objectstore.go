// Package objectstore simulates the Swift/S3-style object storage service
// used in the Unit-8 lab and by project groups for large training
// datasets: buckets, objects with ETags, and prefix listing. Objects
// keep their metadata, not their bytes: what the course pays for is
// their size.
package objectstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cloud"
	"repro/internal/simclock"
)

// Errors returned by the service.
var (
	ErrBucketNotFound = errors.New("objectstore: bucket not found")
	ErrBucketExists   = errors.New("objectstore: bucket already exists")
)

// Object is a stored blob plus metadata.
type Object struct {
	Key          string
	Size         int64
	ETag         string
	ContentType  string
	LastModified float64
}

// Bucket is a flat namespace of objects.
type Bucket struct {
	Name      string
	Project   string
	CreatedAt float64
	objects   map[string]*Object
}

// Service is the object-storage API endpoint for one site.
type Service struct {
	mu      sync.Mutex
	clock   *simclock.Clock
	cloud   *cloud.Cloud // optional, for metering
	buckets map[string]*Bucket

	// usage metering: one open record per bucket whose Quantity tracks
	// the bucket's current size; we re-open a record whenever the size
	// changes so the meter integrates GB-hours correctly.
	bucketRecs map[string]*cloud.UsageRecord
}

// New returns a service. cl may be nil for standalone use (no metering).
func New(clock *simclock.Clock, cl *cloud.Cloud) *Service {
	return &Service{clock: clock, cloud: cl,
		buckets:    map[string]*Bucket{},
		bucketRecs: map[string]*cloud.UsageRecord{}}
}

// CreateBucket provisions a bucket. Bucket names are globally unique.
func (s *Service) CreateBucket(project, name string) (*Bucket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrBucketExists, name)
	}
	b := &Bucket{Name: name, Project: project, CreatedAt: s.clock.Now(),
		objects: map[string]*Object{}}
	s.buckets[name] = b
	return b, nil
}

// Put stores an object, overwriting any existing object at key.
func (s *Service) Put(bucket, key string, data []byte, contentType string) (*Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrBucketNotFound, bucket)
	}
	sum := sha256.Sum256(data)
	o := &Object{
		Key:          key,
		Size:         int64(len(data)),
		ETag:         hex.EncodeToString(sum[:8]),
		ContentType:  contentType,
		LastModified: s.clock.Now(),
	}
	b.objects[key] = o
	s.remeterLocked(b)
	return o, nil
}

// PutSized records an object of logical size bytes without materializing
// contents — the usage simulator stores multi-GB "datasets" this way.
func (s *Service) PutSized(bucket, key string, size int64) (*Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrBucketNotFound, bucket)
	}
	o := &Object{Key: key, Size: size, ETag: "synthetic",
		LastModified: s.clock.Now()}
	b.objects[key] = o
	s.remeterLocked(b)
	return o, nil
}

// remeterLocked rolls the bucket's open usage record to the current size.
func (s *Service) remeterLocked(b *Bucket) {
	if s.cloud == nil {
		return
	}
	if rec, ok := s.bucketRecs[b.Name]; ok {
		s.cloud.Meter().Close(rec, s.clock.Now())
	}
	var total int64
	for _, o := range b.objects {
		total += o.Size
	}
	s.bucketRecs[b.Name] = s.cloud.Meter().Open(cloud.UsageObjectStorageGB, b.Project, "bucket",
		cloud.NewTags("bucket", b.Name), float64(total)/(1<<30), s.clock.Now())
}

// List returns keys in the bucket with the given prefix, sorted.
func (s *Service) List(bucket, prefix string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrBucketNotFound, bucket)
	}
	var keys []string
	for k := range b.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// BucketSize returns the total stored bytes in a bucket.
func (s *Service) BucketSize(bucket string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrBucketNotFound, bucket)
	}
	var total int64
	for _, o := range b.objects {
		total += o.Size
	}
	return total, nil
}
