package cloud

import (
	"fmt"
	"strings"
)

// Network is a tenant L2 network. The course labs create one internal
// network per student cluster for inter-VM communication.
type Network struct {
	ID      string
	Name    string
	Project string
	Subnets []*Subnet
}

// Subnet is an IPv4 address block attached to a network. Address
// assignment is sequential from the block; the simulator does not model
// DHCP churn.
type Subnet struct {
	ID      string
	Name    string
	CIDR    string
	network *Network
	nextIP  int
}

// Router connects tenant networks to the external network, providing SNAT
// and floating-IP routing.
type Router struct {
	ID      string
	Name    string
	Project string
}

// FloatingIP is a publicly routable address billed by the hour on
// commercial clouds (the paper's cost model includes floating-IP hours).
type FloatingIP struct {
	ID         string
	Address    string
	Project    string
	InstanceID string // empty when unassociated
	// Metering window (simulated hours since epoch).
	AllocatedAt float64
	ReleasedAt  float64 // -1 while held
}

// SecurityGroup is a named ingress rule set. The simulator does not
// filter traffic, so it records only the group itself.
type SecurityGroup struct {
	ID      string
	Name    string
	Project string
}

// allocIP hands out the next address in the subnet's block. The simulator
// formats the CIDR base with an incrementing host part and does not model
// exhaustion beyond 60k hosts.
func (s *Subnet) allocIP() string {
	s.nextIP++
	base := s.CIDR
	if slash := strings.IndexByte(base, '/'); slash >= 0 {
		base = base[:slash]
	}
	parts := strings.Split(base, ".")
	if len(parts) != 4 {
		return fmt.Sprintf("10.0.0.%d", s.nextIP)
	}
	host := s.nextIP + 1 // skip network address
	return fmt.Sprintf("%s.%s.%d.%d", parts[0], parts[1], host/250, host%250+2)
}
