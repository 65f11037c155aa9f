// Package blockstore simulates the OpenStack Cinder-style block-storage
// service exercised by the Unit-8 "Persistent Data" lab: provision a
// volume and attach it to an instance. Volume state follows the real
// service's machine, available -> in-use (attach). Capacity is charged
// against the owning project's block-storage quota in GB and metered in
// GB-hours.
package blockstore

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cloud"
	"repro/internal/simclock"
)

// Errors returned by the service.
var (
	ErrNotFound = errors.New("blockstore: volume not found")
	ErrInUse    = errors.New("blockstore: volume is attached")
	ErrQuota    = errors.New("blockstore: block storage quota exceeded")
)

// VolumeState is the coarse lifecycle state.
type VolumeState int

const (
	StateAvailable VolumeState = iota
	StateInUse
)

// Volume is a block device.
type Volume struct {
	ID      string
	Name    string
	Project string
	SizeGB  int
	State   VolumeState

	AttachedTo string // instance ID when in-use
	CreatedAt  float64
}

// Service is the block-storage API endpoint for one site.
type Service struct {
	mu     sync.Mutex
	clock  *simclock.Clock
	cloud  *cloud.Cloud // for quota + metering; may be nil in unit tests
	vols   map[string]*Volume
	nextID int
}

// New returns a service backed by the given cloud for quota accounting
// and usage metering. cl may be nil for standalone use (no quotas).
func New(clock *simclock.Clock, cl *cloud.Cloud) *Service {
	return &Service{
		clock: clock,
		cloud: cl,
		vols:  map[string]*Volume{},
	}
}

func (s *Service) id(prefix string) string {
	s.nextID++
	return fmt.Sprintf("%s-%06d", prefix, s.nextID)
}

// Create provisions a volume of sizeGB, charging the project's quota.
func (s *Service) Create(project, name string, sizeGB int) (*Volume, error) {
	if sizeGB <= 0 {
		return nil, fmt.Errorf("blockstore: invalid size %d GB", sizeGB)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cloud != nil {
		p, err := s.cloud.GetProject(project)
		if err != nil {
			return nil, err
		}
		if p.Quota.Volumes != cloud.Unlimited && p.Usage.Volumes+1 > p.Quota.Volumes {
			return nil, fmt.Errorf("%w: volumes %d/%d", ErrQuota, p.Usage.Volumes, p.Quota.Volumes)
		}
		// Against the headroom: usage+size can wrap.
		if p.Quota.BlockStorageGB != cloud.Unlimited && sizeGB > p.Quota.BlockStorageGB-p.Usage.BlockStorageGB {
			return nil, fmt.Errorf("%w: %d GB in use, %d requested, limit %d",
				ErrQuota, p.Usage.BlockStorageGB, sizeGB, p.Quota.BlockStorageGB)
		}
		p.Usage.Volumes++
		p.Usage.BlockStorageGB += sizeGB
	}
	v := &Volume{
		ID: s.id("vol"), Name: name, Project: project, SizeGB: sizeGB,
		State: StateAvailable, CreatedAt: s.clock.Now(),
	}
	s.vols[v.ID] = v
	if s.cloud != nil {
		s.cloud.Meter().Open(cloud.UsageBlockStorageGB, project, "volume",
			cloud.NewTags("volume", name), float64(sizeGB), s.clock.Now())
	}
	return v, nil
}

// Attach binds the volume to an instance as a raw block device.
func (s *Service) Attach(volumeID, instanceID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vols[volumeID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, volumeID)
	}
	if v.State == StateInUse {
		return fmt.Errorf("%w: attached to %s", ErrInUse, v.AttachedTo)
	}
	v.State = StateInUse
	v.AttachedTo = instanceID
	return nil
}
