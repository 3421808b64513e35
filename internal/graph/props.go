package graph

// Properties summarizes a graph the way the paper's Table 3 does.
type Properties struct {
	Nodes        int
	Edges        int64
	AvgDegree    float64
	MaxOutDegree int64
	MaxInDegree  int64
	EstDiameter  int
	CSRBytes     int64
}

// Props computes the Table 3 property row for g.
func (g *Graph) Props() Properties {
	_, maxOut := g.MaxOutDegreeNode()
	p := Properties{
		Nodes:        g.NumNodes(),
		Edges:        g.NumEdges(),
		MaxOutDegree: maxOut,
		MaxInDegree:  g.MaxInDegree(),
		EstDiameter:  g.EstimateDiameter(),
		CSRBytes:     g.CSRBytes(),
	}
	if p.Nodes > 0 {
		p.AvgDegree = float64(p.Edges) / float64(p.Nodes)
	}
	return p
}

// EstimateDiameter estimates the graph's effective diameter using the
// standard double-sweep heuristic: BFS from the max-degree node, then BFS
// again from the farthest node found, treating edges as undirected (the
// paper reports "estimated diameter" for its inputs the same way). Returns
// the largest eccentricity observed across the sweeps. It only reads g: an
// unsealed graph's transpose is built on a local view and dropped.
func (g *Graph) EstimateDiameter() int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	u := g
	if !g.HasIn() {
		u = &Graph{OutOffsets: g.OutOffsets, OutEdges: g.OutEdges}
		u.BuildIn()
	}
	start, _ := g.MaxOutDegreeNode()
	best := 0
	cur := start
	for sweep := 0; sweep < 3; sweep++ {
		dist, far := u.undirectedBFS(cur)
		if dist > best {
			best = dist
		}
		if far == cur {
			break
		}
		cur = far
	}
	return best
}

// undirectedBFS runs BFS over out- and in-edges together and returns the
// maximum finite distance and one node attaining it.
func (g *Graph) undirectedBFS(src Node) (int, Node) {
	n := g.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	frontier := []Node{src}
	level := int32(0)
	far := src
	for len(frontier) > 0 {
		level++
		var next []Node
		for _, v := range frontier {
			for _, d := range g.OutNeighbors(v) {
				if dist[d] < 0 {
					dist[d] = level
					next = append(next, d)
					far = d
				}
			}
			for _, d := range g.InNeighbors(v) {
				if dist[d] < 0 {
					dist[d] = level
					next = append(next, d)
					far = d
				}
			}
		}
		frontier = next
	}
	return int(dist[far]), far
}
