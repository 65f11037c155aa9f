package cloud

import "fmt"

// Quota caps the resources a project may hold simultaneously. Zero fields
// mean "no allowance"; use Unlimited for unbounded dimensions. The default
// classroom quota mirrors the increase the instructors requested from the
// Chameleon operators (Section 4 of the paper).
type Quota struct {
	Instances      int
	Cores          int
	RAMGB          int
	Networks       int
	Routers        int
	FloatingIPs    int
	SecurityGroups int
	Volumes        int
	BlockStorageGB int
}

// Unlimited marks a quota dimension as unbounded.
const Unlimited = int(^uint(0) >> 1) // MaxInt

// CourseQuota is the quota the paper reports requesting for KVM@TACC:
// 600 instances, 1200 cores, 2.5 TB RAM, unlimited private networks,
// 200 routers, 300 floating IPs, 100 security groups, 200 volumes, 10 TB
// block storage.
func CourseQuota() Quota {
	return Quota{
		Instances:      600,
		Cores:          1200,
		RAMGB:          2560,
		Networks:       Unlimited,
		Routers:        200,
		FloatingIPs:    300,
		SecurityGroups: 100,
		Volumes:        200,
		BlockStorageGB: 10240,
	}
}

// DefaultProjectQuota is a modest research-project quota used when no
// explicit quota is supplied.
func DefaultProjectQuota() Quota {
	return Quota{
		Instances:      10,
		Cores:          40,
		RAMGB:          128,
		Networks:       10,
		Routers:        5,
		FloatingIPs:    10,
		SecurityGroups: 10,
		Volumes:        10,
		BlockStorageGB: 500,
	}
}

// Usage tracks a project's current consumption against its quota.
type Usage struct {
	Instances      int
	Cores          int
	RAMGB          int
	Networks       int
	Routers        int
	FloatingIPs    int
	SecurityGroups int
	Volumes        int
	BlockStorageGB int
}

// QuotaError reports which dimension would be exceeded by a request.
type QuotaError struct {
	Dimension string
	Requested int
	InUse     int
	Limit     int
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("cloud: quota exceeded for %s: requested %d with %d in use, limit %d",
		e.Dimension, e.Requested, e.InUse, e.Limit)
}

// check validates that adding delta to inUse stays within limit. It
// compares delta with the headroom, since inUse+delta can wrap.
func check(dim string, inUse, delta, limit int) error {
	if limit == Unlimited {
		return nil
	}
	if delta > limit-inUse {
		return &QuotaError{Dimension: dim, Requested: delta, InUse: inUse, Limit: limit}
	}
	return nil
}

// CanLaunch validates an instance launch against the quota.
func (q Quota) CanLaunch(u Usage, f Flavor) error {
	if err := check("instances", u.Instances, 1, q.Instances); err != nil {
		return err
	}
	if err := check("cores", u.Cores, f.VCPUs, q.Cores); err != nil {
		return err
	}
	return check("ram_gb", u.RAMGB, f.RAMGB, q.RAMGB)
}
