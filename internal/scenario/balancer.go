package scenario

import (
	"fmt"
	"strings"

	"provirt/internal/lb"
)

// BalancerNames lists the strategies ParseBalancer accepts, in help
// order.
func BalancerNames() []string {
	return []string{"greedyrefine", "rotate"}
}

// ParseBalancer maps a document's balancer name to a strategy. The
// empty string selects no balancer.
func ParseBalancer(name string) (lb.Strategy, error) {
	switch name {
	case "":
		return nil, nil
	case "greedyrefine":
		return lb.GreedyRefineLB{}, nil
	case "rotate":
		return lb.RotateLB{}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown balancer %q (try %s)",
			name, strings.Join(BalancerNames(), ", "))
	}
}
