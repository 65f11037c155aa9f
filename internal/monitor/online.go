package monitor

import (
	"fmt"
	"sync"
)

// CanaryComparison watches error rates of the stable and canary arms and
// renders the promote/rollback verdict used as a cicd.Gate.
type CanaryComparison struct {
	mu                  sync.Mutex
	stableN, stableErrs int
	canaryN, canaryErrs int
	// MaxErrorRate is the canary's absolute ceiling; MaxRegression is the
	// tolerated excess over stable.
	MaxErrorRate  float64
	MaxRegression float64
}

// NewCanaryComparison uses conventional limits: canary must stay under 5%
// errors and within 2 points of stable.
func NewCanaryComparison() *CanaryComparison {
	return &CanaryComparison{MaxErrorRate: 0.05, MaxRegression: 0.02}
}

// Record logs one request outcome per arm ("stable" or "canary").
func (c *CanaryComparison) Record(arm string, isError bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch arm {
	case "stable":
		c.stableN++
		if isError {
			c.stableErrs++
		}
	case "canary":
		c.canaryN++
		if isError {
			c.canaryErrs++
		}
	default:
		return fmt.Errorf("monitor: unknown arm %q", arm)
	}
	return nil
}

// Verdict returns nil when the canary is healthy enough to promote, or an
// error explaining the rollback. It refuses to judge with no canary
// traffic.
func (c *CanaryComparison) Verdict() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.canaryN == 0 {
		return fmt.Errorf("monitor: canary received no traffic")
	}
	canaryRate := float64(c.canaryErrs) / float64(c.canaryN)
	if canaryRate > c.MaxErrorRate {
		return fmt.Errorf("monitor: canary error rate %.1f%% exceeds %.1f%%",
			100*canaryRate, 100*c.MaxErrorRate)
	}
	if c.stableN > 0 {
		stableRate := float64(c.stableErrs) / float64(c.stableN)
		if canaryRate > stableRate+c.MaxRegression {
			return fmt.Errorf("monitor: canary error rate %.1f%% regresses stable %.1f%% by more than %.1f points",
				100*canaryRate, 100*stableRate, 100*c.MaxRegression)
		}
	}
	return nil
}
