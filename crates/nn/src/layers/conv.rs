//! 2-D convolution via im2col.
//!
//! Activations stay in the crate-wide `[batch, features]` layout; a
//! `Conv2d` is constructed with its input geometry `(C_in, H, W)` and
//! interprets/produces the feature axis as channel-major `C·H·W`. The
//! forward pass lowers each sample to a column matrix (im2col) and reduces
//! the convolution to one matmul per sample — the standard CPU strategy and
//! exactly how the paper-scale VGG-11 is executed here.

use super::Layer;
use crate::init::Init;
use crate::rng::Rng64;
use crate::tensor::Tensor;

/// Geometry shared by im2col/col2im.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConvGeom {
    pub in_c: usize,
    pub h: usize,
    pub w: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvGeom {
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Rows of the column matrix: one per kernel tap.
    pub fn col_rows(&self) -> usize {
        self.in_c * self.kh * self.kw
    }

    /// Columns of the column matrix: one per output pixel.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }
}

/// Lower one sample (`C·H·W` flat) into the `[col_rows, col_cols]` matrix.
pub(crate) fn im2col(x: &[f32], g: ConvGeom, out: &mut [f32]) {
    let (oh, ow) = (g.out_h(), g.out_w());
    let cols = oh * ow;
    debug_assert_eq!(out.len(), g.col_rows() * cols);
    let mut row = 0;
    for c in 0..g.in_c {
        let plane = &x[c * g.h * g.w..(c + 1) * g.h * g.w];
        for ky in 0..g.kh {
            for kx in 0..g.kw {
                let out_row = &mut out[row * cols..(row + 1) * cols];
                let mut idx = 0;
                for oy in 0..oh {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        out_row[idx] =
                            if iy >= 0 && iy < g.h as isize && ix >= 0 && ix < g.w as isize {
                                plane[iy as usize * g.w + ix as usize]
                            } else {
                                0.0
                            };
                        idx += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-add column gradients back to the image.
pub(crate) fn col2im(cols_grad: &[f32], g: ConvGeom, out: &mut [f32]) {
    let (oh, ow) = (g.out_h(), g.out_w());
    let n_cols = oh * ow;
    debug_assert_eq!(out.len(), g.in_c * g.h * g.w);
    out.fill(0.0);
    let mut row = 0;
    for c in 0..g.in_c {
        for ky in 0..g.kh {
            for kx in 0..g.kw {
                let col_row = &cols_grad[row * n_cols..(row + 1) * n_cols];
                let mut idx = 0;
                for oy in 0..oh {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        if iy >= 0 && iy < g.h as isize && ix >= 0 && ix < g.w as isize {
                            out[c * g.h * g.w + iy as usize * g.w + ix as usize] += col_row[idx];
                        }
                        idx += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// 2-D convolution layer.
#[derive(Clone)]
pub struct Conv2d {
    geom: ConvGeom,
    out_c: usize,
    /// `[out_c, in_c*kh*kw]`.
    w: Tensor,
    /// `[out_c]`.
    b: Tensor,
    gw: Tensor,
    gb: Tensor,
    /// Per-sample im2col matrices from the last training forward.
    cache_cols: Vec<Tensor>,
}

impl Conv2d {
    /// Build a convolution over inputs of shape `(in_c, h, w)`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_c: usize,
        h: usize,
        w: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut Rng64,
    ) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        assert!(
            h + 2 * pad >= kernel && w + 2 * pad >= kernel,
            "kernel {kernel} larger than padded input {h}x{w}+{pad}"
        );
        let geom = ConvGeom {
            in_c,
            h,
            w,
            kh: kernel,
            kw: kernel,
            stride,
            pad,
        };
        let fan_in = in_c * kernel * kernel;
        let fan_out = out_c * kernel * kernel;
        Self {
            geom,
            out_c,
            w: Init::HeNormal.build(&[out_c, fan_in], fan_in, fan_out, rng),
            b: Tensor::zeros(&[out_c]),
            gw: Tensor::zeros(&[out_c, fan_in]),
            gb: Tensor::zeros(&[out_c]),
            cache_cols: Vec::new(),
        }
    }

    /// Flat output feature count (`out_c · out_h · out_w`).
    pub fn out_features(&self) -> usize {
        self.out_c * self.geom.col_cols()
    }

    /// Flat input feature count expected per sample.
    pub fn in_features(&self) -> usize {
        self.geom.in_c * self.geom.h * self.geom.w
    }

    /// Output geometry `(out_c, out_h, out_w)`.
    pub fn out_geom(&self) -> (usize, usize, usize) {
        (self.out_c, self.geom.out_h(), self.geom.out_w())
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let batch = x.rows();
        debug_assert_eq!(
            x.cols(),
            self.in_features(),
            "Conv2d input feature mismatch"
        );
        let n_pix = self.geom.col_cols();
        let mut out = Tensor::zeros(&[batch, self.out_c * n_pix]);
        self.cache_cols.clear();
        for s in 0..batch {
            let mut cols = Tensor::zeros(&[self.geom.col_rows(), n_pix]);
            im2col(x.row(s), self.geom, cols.data_mut());
            // y_s = W · cols  (out_c × n_pix), then add bias per channel.
            let y = self.w.matmul(&cols);
            let out_row = out.row_mut(s);
            for c in 0..self.out_c {
                let bias = self.b.data()[c];
                let src = y.row(c);
                let dst = &mut out_row[c * n_pix..(c + 1) * n_pix];
                for (d, &v) in dst.iter_mut().zip(src.iter()) {
                    *d = v + bias;
                }
            }
            if train {
                self.cache_cols.push(cols);
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let batch = grad_out.rows();
        assert_eq!(
            batch,
            self.cache_cols.len(),
            "Conv2d backward batch mismatch (forward not called?)"
        );
        let n_pix = self.geom.col_cols();
        let mut grad_in = Tensor::zeros(&[batch, self.in_features()]);
        for s in 0..batch {
            let g = Tensor::from_vec(&[self.out_c, n_pix], grad_out.row(s).to_vec());
            let cols = &self.cache_cols[s];
            // dW += G · colsᵀ ; db += Σ_pix G ; dcols = Wᵀ · G
            self.gw.add_assign(&g.matmul_t(cols));
            for c in 0..self.out_c {
                let sum: f32 = g.row(c).iter().sum();
                self.gb.data_mut()[c] += sum;
            }
            let dcols = self.w.t_matmul(&g);
            col2im(dcols.data(), self.geom, grad_in.row_mut(s));
        }
        self.cache_cols.clear();
        grad_in
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w, &mut self.b]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.gw, &self.gb]
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.gw, &mut self.gb]
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{grad_check_input, grad_check_params};

    #[test]
    fn geometry() {
        let g = ConvGeom {
            in_c: 3,
            h: 8,
            w: 8,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        assert_eq!(g.out_h(), 8);
        assert_eq!(g.out_w(), 8);
        assert_eq!(g.col_rows(), 27);
        assert_eq!(g.col_cols(), 64);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut rng = Rng64::new(1);
        // 1 channel, 3x3 kernel with center tap = 1 → identity with pad 1.
        let mut conv = Conv2d::new(1, 4, 4, 1, 3, 1, 1, &mut rng);
        let w = conv.params_mut().swap_remove(0);
        w.fill_zero();
        w.data_mut()[4] = 1.0; // center of the 3x3 kernel
        let x = Tensor::from_vec(&[1, 16], (0..16).map(|i| i as f32).collect());
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_convolution_value() {
        let mut rng = Rng64::new(2);
        // 2x2 all-ones kernel, stride 1, no pad on a 3x3 image: each output
        // is the sum of a 2x2 window.
        let mut conv = Conv2d::new(1, 3, 3, 1, 2, 1, 0, &mut rng);
        conv.params_mut()[0].data_mut().fill(1.0);
        let x = Tensor::from_vec(&[1, 9], vec![1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), &[12., 16., 24., 28.]);
    }

    #[test]
    fn stride_two_halves_resolution() {
        let mut rng = Rng64::new(3);
        let conv = Conv2d::new(2, 8, 8, 5, 2, 2, 0, &mut rng);
        assert_eq!(conv.out_geom(), (5, 4, 4));
        assert_eq!(conv.out_features(), 80);
    }

    #[test]
    fn gradients_pass_finite_difference() {
        let mut rng = Rng64::new(4);
        let mut conv = Conv2d::new(2, 4, 4, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 32], 0.0, 1.0, &mut rng);
        grad_check_input(&mut conv, &x, &mut rng, 3e-2);
        grad_check_params(&mut conv, &x, &mut rng, 3e-2);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of an adjoint pair, which backward correctness rests on.
        let mut rng = Rng64::new(5);
        let g = ConvGeom {
            in_c: 2,
            h: 5,
            w: 4,
            kh: 3,
            kw: 2,
            stride: 1,
            pad: 1,
        };
        let x = Tensor::randn(&[g.in_c * g.h * g.w], 0.0, 1.0, &mut rng);
        let y = Tensor::randn(&[g.col_rows() * g.col_cols()], 0.0, 1.0, &mut rng);
        let mut cols = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(x.data(), g, &mut cols);
        let lhs: f32 = cols.iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let mut back = vec![0.0; g.in_c * g.h * g.w];
        col2im(y.data(), g, &mut back);
        let rhs: f32 = x.data().iter().zip(back.iter()).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn rejects_oversized_kernel() {
        let mut rng = Rng64::new(6);
        let _ = Conv2d::new(1, 2, 2, 1, 5, 1, 0, &mut rng);
    }
}
