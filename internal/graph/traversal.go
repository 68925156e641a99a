package graph

// Components labels connected components. It returns the component id of
// every node (ids are dense, assigned in discovery order) and the number
// of components.
func (g *Graph) Components() (labels []int, count int) {
	labels = make([]int, g.n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for s := 0; s < g.n; s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = count
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(int(u)) {
				if labels[v] == -1 {
					labels[v] = count
					queue = append(queue, v)
				}
			}
		}
		count++
	}
	return labels, count
}
