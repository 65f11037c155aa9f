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
	// External marks provider networks that can supply floating IPs.
	External bool
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
	ID         string
	Name       string
	Project    string
	ExternalGW *Network
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

// SecurityGroupRule permits ingress traffic matching protocol, port range
// and source CIDR prefix.
type SecurityGroupRule struct {
	Protocol   string // "tcp", "udp", "icmp"
	PortMin    int
	PortMax    int
	RemoteCIDR string // e.g. "0.0.0.0/0"
}

// SecurityGroup is a named set of ingress rules.
type SecurityGroup struct {
	ID      string
	Name    string
	Project string
	Rules   []SecurityGroupRule
}

// cidrContains implements simplified IPv4 CIDR matching for the /0, /8,
// /16, /24 and /32 prefixes used in the labs.
//
//lint:ignore deadcode test-only API; ROADMAP item 6 schedules its deletion
func cidrContains(cidr, ip string) bool {
	slash := strings.IndexByte(cidr, '/')
	if slash < 0 {
		return cidr == ip
	}
	base, bitsStr := cidr[:slash], cidr[slash+1:]
	octetsKept := 0
	switch bitsStr {
	case "0":
		return true
	case "8":
		octetsKept = 1
	case "16":
		octetsKept = 2
	case "24":
		octetsKept = 3
	case "32":
		return base == ip
	default:
		return false
	}
	bp := strings.Split(base, ".")
	ipp := strings.Split(ip, ".")
	if len(bp) != 4 || len(ipp) != 4 {
		return false
	}
	for i := 0; i < octetsKept; i++ {
		if bp[i] != ipp[i] {
			return false
		}
	}
	return true
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
