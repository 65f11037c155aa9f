package objectstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/simclock"
)

func newSvc() *Service {
	return New(simclock.New(), nil)
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newSvc()
	if _, err := s.CreateBucket("p", "datasets"); err != nil {
		t.Fatal(err)
	}
	data := []byte("food11 image bytes")
	o, err := s.Put("datasets", "food11/train/0001.jpg", data, "image/jpeg")
	if err != nil {
		t.Fatal(err)
	}
	if o.Size != int64(len(data)) || o.ETag == "" {
		t.Errorf("object metadata: %+v", o)
	}
	if keys, _ := s.List("datasets", ""); len(keys) != 1 || keys[0] != "food11/train/0001.jpg" {
		t.Errorf("stored keys = %v", keys)
	}
}

func TestOverwriteChangesETag(t *testing.T) {
	s := newSvc()
	_, _ = s.CreateBucket("p", "b")
	a, _ := s.Put("b", "k", []byte("v1"), "")
	b, _ := s.Put("b", "k", []byte("v2"), "")
	if a.ETag == b.ETag {
		t.Error("ETag unchanged after overwrite")
	}
	if got := s.buckets["b"].objects["k"]; got != b {
		t.Errorf("stored object after overwrite = %+v, want the second put", got)
	}
}

func TestBucketErrors(t *testing.T) {
	s := newSvc()
	if _, err := s.Put("missing", "k", nil, ""); !errors.Is(err, ErrBucketNotFound) {
		t.Errorf("put to missing bucket err = %v", err)
	}
	_, _ = s.CreateBucket("p", "b")
	if _, err := s.CreateBucket("p", "b"); !errors.Is(err, ErrBucketExists) {
		t.Errorf("duplicate bucket err = %v", err)
	}
	if _, err := s.List("missing", ""); !errors.Is(err, ErrBucketNotFound) {
		t.Errorf("list missing bucket err = %v", err)
	}
}

func TestListPrefix(t *testing.T) {
	s := newSvc()
	_, _ = s.CreateBucket("p", "b")
	for _, k := range []string{"train/1", "train/2", "val/1", "test/1"} {
		_, _ = s.Put("b", k, nil, "")
	}
	keys, err := s.List("b", "train/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "train/1" || keys[1] != "train/2" {
		t.Errorf("List(train/) = %v", keys)
	}
	all, _ := s.List("b", "")
	if len(all) != 4 {
		t.Errorf("List() = %v", all)
	}
}

func TestBucketSizeAndSynthetic(t *testing.T) {
	s := newSvc()
	_, _ = s.CreateBucket("p", "b")
	_, _ = s.Put("b", "small", make([]byte, 100), "")
	if _, err := s.PutSized("b", "dataset.tar", 1_200_000_000); err != nil {
		t.Fatal(err)
	}
	size, err := s.BucketSize("b")
	if err != nil {
		t.Fatal(err)
	}
	if size != 1_200_000_100 {
		t.Errorf("bucket size = %d", size)
	}
}

func TestPutGetProperty(t *testing.T) {
	s := newSvc()
	_, _ = s.CreateBucket("p", "b")
	i := 0
	f := func(data []byte) bool {
		i++
		key := fmt.Sprintf("obj-%d", i)
		if _, err := s.Put("b", key, data, ""); err != nil {
			return false
		}
		got := s.buckets["b"].objects[key]
		sum := sha256.Sum256(data)
		return got.Size == int64(len(data)) && got.ETag == hex.EncodeToString(sum[:8])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPut(b *testing.B) {
	s := newSvc()
	_, _ = s.CreateBucket("p", "b")
	data := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Put("b", fmt.Sprintf("k-%d", i), data, "")
	}
}
