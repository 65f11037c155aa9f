package iac

import (
	"errors"
	"fmt"

	"repro/internal/cloud"
)

// CloudProvider bridges the IaC engine to the internal/cloud simulator,
// playing the role of the OpenStack Terraform provider the labs use.
//
// Supported resource types and attributes:
//
//	network        name
//	subnet         network (addr), name, cidr
//	router         name (external gateway implied)
//	instance       name, flavor, network (addr, optional), lab, student
//	floating_ip    instance (addr, optional), lab, student
//	security_group name, rules (opaque)
type CloudProvider struct {
	Cloud   *cloud.Cloud
	Project string
}

// refAttr names each resource type's address-valued ("addr") attribute,
// which Create resolves through state. PlanChanges checks and orders it
// like a DependsOn entry.
var refAttr = map[string]string{
	"subnet":      "network",
	"instance":    "network",
	"floating_ip": "instance",
}

// Create implements Provider.
func (p *CloudProvider) Create(r Resource, s *State) (string, error) {
	switch r.Type {
	case "network":
		n, err := p.Cloud.CreateNetwork(p.Project, r.Attrs["name"])
		if err != nil {
			return "", err
		}
		return n.ID, nil
	case "subnet":
		netID, err := p.resolve(s, r.Attrs["network"])
		if err != nil {
			return "", err
		}
		sub, err := p.Cloud.CreateSubnet(netID, r.Attrs["name"], r.Attrs["cidr"])
		if err != nil {
			return "", err
		}
		return sub.ID, nil
	case "router":
		rt, err := p.Cloud.CreateRouter(p.Project, r.Attrs["name"])
		if err != nil {
			return "", err
		}
		return rt.ID, nil
	case "security_group":
		g, err := p.Cloud.CreateSecurityGroup(p.Project, r.Attrs["name"])
		if err != nil {
			return "", err
		}
		return g.ID, nil
	case "instance":
		flavor, err := cloud.FlavorByName(r.Attrs["flavor"])
		if err != nil {
			return "", err
		}
		spec := cloud.LaunchSpec{
			Project: p.Project,
			Name:    r.Attrs["name"],
			Flavor:  flavor,
			Tags:    cloud.NewTags("lab", r.Attrs["lab"], "student", r.Attrs["student"], "managed_by", "iac"),
		}
		if netAddr := r.Attrs["network"]; netAddr != "" {
			spec.NetworkID, err = p.resolve(s, netAddr)
			if err != nil {
				return "", err
			}
		}
		inst, err := p.Cloud.Launch(spec)
		if err != nil {
			return "", err
		}
		return inst.ID, nil
	case "floating_ip":
		tags := cloud.NewTags("lab", r.Attrs["lab"], "student", r.Attrs["student"], "managed_by", "iac")
		instAddr := r.Attrs["instance"]
		if instAddr == "" {
			fip, err := p.Cloud.AllocateFloatingIP(p.Project, tags)
			if err != nil {
				return "", err
			}
			return fip.ID, nil
		}
		// Resolve the instance before anything is allocated: a failed
		// create leaves no state entry, so Destroy could not free an
		// address allocated here.
		instID, err := p.resolve(s, instAddr)
		if err != nil {
			return "", err
		}
		fip, err := p.Cloud.AllocateFloatingIPFor(p.Project, instID, tags)
		if err != nil {
			return "", err
		}
		return fip.ID, nil
	default:
		return "", fmt.Errorf("iac: cloud provider does not support resource type %q", r.Type)
	}
}

// Delete implements Provider. Networking objects other than floating IPs
// are metadata-only in the simulator, so their deletion is a no-op.
func (p *CloudProvider) Delete(r Resource, id string, _ *State) error {
	switch r.Type {
	case "instance":
		err := p.Cloud.Delete(id)
		if errors.Is(err, cloud.ErrAlreadyDeleted) || errors.Is(err, cloud.ErrNotFound) {
			return nil // converging on absence is success
		}
		return err
	case "floating_ip":
		err := p.Cloud.ReleaseFloatingIP(id)
		if errors.Is(err, cloud.ErrNotFound) {
			return nil
		}
		return err
	default:
		return nil
	}
}

// resolve maps a referenced resource address to its provider ID via state.
func (p *CloudProvider) resolve(s *State, addr string) (string, error) {
	e, ok := s.Get(addr)
	if !ok {
		return "", fmt.Errorf("%w: %s not yet created", ErrUnknown, addr)
	}
	return e.ID, nil
}
