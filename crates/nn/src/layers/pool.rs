//! Max pooling.

use super::Layer;
use crate::tensor::Tensor;

/// 2-D max pooling over non-overlapping-or-strided windows.
///
/// Like [`super::Conv2d`], the layer is constructed with its input geometry
/// `(c, h, w)` and works on the flat `[batch, c·h·w]` layout. Backward routes
/// each window's gradient to the argmax position recorded during forward
/// (ties break toward the first element scanned, matching PyTorch).
#[derive(Clone)]
pub struct MaxPool2d {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    /// Flat input index of the max of each output cell, per sample.
    cache_argmax: Vec<Vec<u32>>,
    in_features: usize,
}

impl MaxPool2d {
    /// Build a pooling layer for inputs of shape `(c, h, w)` with window `k`
    /// and the given stride.
    pub fn new(c: usize, h: usize, w: usize, k: usize, stride: usize) -> Self {
        assert!(
            k > 0 && stride > 0,
            "pool window and stride must be positive"
        );
        assert!(
            h >= k && w >= k,
            "pool window {k} larger than input {h}x{w}"
        );
        Self {
            c,
            h,
            w,
            k,
            stride,
            cache_argmax: Vec::new(),
            in_features: c * h * w,
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.h - self.k) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.w - self.k) / self.stride + 1
    }

    /// Flat output feature count.
    pub fn out_features(&self) -> usize {
        self.c * self.out_h() * self.out_w()
    }

    /// Output geometry `(c, out_h, out_w)`.
    pub fn out_geom(&self) -> (usize, usize, usize) {
        (self.c, self.out_h(), self.out_w())
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let batch = x.rows();
        debug_assert_eq!(x.cols(), self.in_features, "MaxPool2d input mismatch");
        let (oh, ow) = (self.out_h(), self.out_w());
        let mut out = Tensor::zeros(&[batch, self.c * oh * ow]);
        self.cache_argmax.clear();
        for s in 0..batch {
            let row = x.row(s);
            let out_row = out.row_mut(s);
            let mut argmax = vec![0u32; self.c * oh * ow];
            let mut oidx = 0;
            for c in 0..self.c {
                let plane = &row[c * self.h * self.w..(c + 1) * self.h * self.w];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let y0 = oy * self.stride;
                        let x0 = ox * self.stride;
                        let mut best = f32::NEG_INFINITY;
                        let mut best_at = 0usize;
                        for dy in 0..self.k {
                            for dx in 0..self.k {
                                let at = (y0 + dy) * self.w + (x0 + dx);
                                let v = plane[at];
                                if v > best {
                                    best = v;
                                    best_at = at;
                                }
                            }
                        }
                        out_row[oidx] = best;
                        argmax[oidx] = (c * self.h * self.w + best_at) as u32;
                        oidx += 1;
                    }
                }
            }
            if train {
                self.cache_argmax.push(argmax);
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let batch = grad_out.rows();
        assert_eq!(
            batch,
            self.cache_argmax.len(),
            "MaxPool2d backward batch mismatch (forward not called?)"
        );
        let mut grad_in = Tensor::zeros(&[batch, self.in_features]);
        for s in 0..batch {
            let g_row = grad_out.row(s);
            let out = grad_in.row_mut(s);
            for (g, &at) in g_row.iter().zip(self.cache_argmax[s].iter()) {
                out[at as usize] += g;
            }
        }
        self.cache_argmax.clear();
        grad_in
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    fn name(&self) -> &'static str {
        "max_pool2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_maxima() {
        let mut pool = MaxPool2d::new(1, 4, 4, 2, 2);
        let x = Tensor::from_vec(
            &[1, 16],
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        );
        let y = pool.forward(&x, false);
        assert_eq!(y.data(), &[4., 8., 12., 16.]);
    }

    #[test]
    fn multi_channel_independent() {
        let mut pool = MaxPool2d::new(2, 2, 2, 2, 2);
        let x = Tensor::from_vec(&[1, 8], vec![1., 2., 3., 4., -1., -2., -3., -4.]);
        let y = pool.forward(&x, false);
        assert_eq!(y.data(), &[4.0, -1.0]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(1, 2, 2, 2, 2);
        let x = Tensor::from_vec(&[1, 4], vec![0.1, 0.9, 0.3, 0.2]);
        let _ = pool.forward(&x, true);
        let g = pool.backward(&Tensor::from_vec(&[1, 1], vec![2.0]));
        assert_eq!(g.data(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn strided_overlapping_windows() {
        let mut pool = MaxPool2d::new(1, 3, 3, 2, 1);
        assert_eq!(pool.out_geom(), (1, 2, 2));
        let x = Tensor::from_vec(&[1, 9], vec![1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        let y = pool.forward(&x, false);
        assert_eq!(y.data(), &[5., 6., 8., 9.]);
    }

    #[test]
    fn batch_independence() {
        let mut pool = MaxPool2d::new(1, 2, 2, 2, 2);
        let x = Tensor::from_vec(&[2, 4], vec![1., 2., 3., 4., 40., 30., 20., 10.]);
        let y = pool.forward(&x, false);
        assert_eq!(y.data(), &[4.0, 40.0]);
    }

    #[test]
    #[should_panic(expected = "larger than input")]
    fn rejects_oversized_window() {
        let _ = MaxPool2d::new(1, 2, 2, 3, 1);
    }
}
