package cicd

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/orchestrator"
)

// Promotion errors.
var (
	ErrNoStaging    = errors.New("cicd: nothing deployed to staging")
	ErrNoCanary     = errors.New("cicd: no canary in progress")
	ErrGateRejected = errors.New("cicd: promotion gate rejected the release")
)

// Gate evaluates a candidate release; returning an error vetoes
// promotion. Typical gates query internal/monitor for canary error rates.
type Gate func(image string) error

// ReleasePipeline manages the staging → canary → production flow the
// GourmetGram service uses: staging runs the candidate alone, canary
// splits production replicas between stable and candidate, and promotion
// replaces stable.
type ReleasePipeline struct {
	Cluster *orchestrator.Cluster
	// Service is the base name; deployments are <service>-staging,
	// <service>-canary, <service>; ProdReplicas is the stable pool size.
	Service      string
	Spec         orchestrator.PodSpec
	ProdReplicas int

	mu         sync.Mutex
	stagingImg string
	canaryImg  string
	stableImg  string
}

// DeployStaging deploys the candidate image to the staging environment
// (1 replica).
func (p *ReleasePipeline) DeployStaging(image string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	spec := p.Spec
	spec.Image = image
	p.Cluster.Apply(orchestrator.Deployment{Name: p.Service + "-staging", Replicas: 1, Spec: spec})
	p.Cluster.ReconcileToFixedPoint()
	p.stagingImg = image
	return nil
}

// PromoteToCanary moves the staging image into a canary taking weight
// (0,1] of production traffic: canary replicas = ceil(weight × prod),
// stable shrinks by the same amount so total capacity is constant.
func (p *ReleasePipeline) PromoteToCanary(weight float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stagingImg == "" {
		return ErrNoStaging
	}
	if weight <= 0 || weight > 1 {
		return fmt.Errorf("cicd: canary weight %v outside (0, 1]", weight)
	}
	canaryReplicas := int(weight*float64(p.ProdReplicas) + 0.999)
	if canaryReplicas < 1 {
		canaryReplicas = 1
	}
	stableReplicas := p.ProdReplicas - canaryReplicas
	if stableReplicas < 0 {
		stableReplicas = 0
	}
	canarySpec := p.Spec
	canarySpec.Image = p.stagingImg
	p.Cluster.Apply(orchestrator.Deployment{Name: p.Service + "-canary", Replicas: canaryReplicas, Spec: canarySpec})
	if p.stableImg != "" {
		stableSpec := p.Spec
		stableSpec.Image = p.stableImg
		p.Cluster.Apply(orchestrator.Deployment{Name: p.Service, Replicas: stableReplicas, Spec: stableSpec})
	}
	p.Cluster.ReconcileToFixedPoint()
	p.canaryImg = p.stagingImg
	return nil
}

// PromoteToProduction replaces the stable image with the canary image
// after the gate approves, scales production back to full size, and
// removes the canary. On gate rejection the canary is rolled back and
// ErrGateRejected returned.
func (p *ReleasePipeline) PromoteToProduction(gate Gate) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.canaryImg == "" {
		return ErrNoCanary
	}
	if gate != nil {
		if err := gate(p.canaryImg); err != nil {
			p.rollbackCanaryLocked()
			return fmt.Errorf("%w: %v", ErrGateRejected, err)
		}
	}
	p.stableImg = p.canaryImg
	p.canaryImg = ""
	spec := p.Spec
	spec.Image = p.stableImg
	p.Cluster.Apply(orchestrator.Deployment{Name: p.Service, Replicas: p.ProdReplicas, Spec: spec})
	_ = p.Cluster.DeleteDeployment(p.Service + "-canary")
	p.Cluster.ReconcileToFixedPoint()
	return nil
}

// rollbackCanaryLocked removes the canary and restores the stable pool.
func (p *ReleasePipeline) rollbackCanaryLocked() {
	_ = p.Cluster.DeleteDeployment(p.Service + "-canary")
	if p.stableImg != "" {
		spec := p.Spec
		spec.Image = p.stableImg
		p.Cluster.Apply(orchestrator.Deployment{Name: p.Service, Replicas: p.ProdReplicas, Spec: spec})
	}
	p.Cluster.ReconcileToFixedPoint()
	p.canaryImg = ""
}

// Images reports the current staging, canary, and stable images.
func (p *ReleasePipeline) Images() (staging, canary, stable string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stagingImg, p.canaryImg, p.stableImg
}
