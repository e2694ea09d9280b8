//! Parameter storage, gradient accumulation, and optimizers.
//!
//! Models register named parameters in a [`ParamStore`]. Each training step:
//!
//! 1. build a fresh [`Tape`](crate::Tape), binding parameters as leaves via a
//!    [`Binder`];
//! 2. run forward and `backward`;
//! 3. [`Binder::accumulate`] copies leaf gradients into the store;
//! 4. an [`Optimizer`] applies the update and clears gradients.

use crate::cost;
use crate::tape::{Grads, Tape, TapeOps, Var};
use crate::tensor::Tensor;
use gs_obs::prof;
use std::collections::HashMap;

/// Identifier of a parameter within a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

#[derive(Clone)]
struct ParamEntry {
    name: String,
    value: Tensor,
    grad: Option<Tensor>,
    adam_m: Option<Tensor>,
    adam_v: Option<Tensor>,
}

/// A named collection of trainable tensors with accumulated gradients and
/// optimizer state.
#[derive(Clone, Default)]
pub struct ParamStore {
    entries: Vec<ParamEntry>,
    index: HashMap<String, ParamId>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter; names must be unique.
    ///
    /// # Panics
    /// Panics if the name is already registered.
    pub fn register(&mut self, name: &str, value: Tensor) -> ParamId {
        assert!(!self.index.contains_key(name), "duplicate parameter name {name:?}");
        let id = ParamId(self.entries.len());
        self.entries.push(ParamEntry {
            name: name.to_string(),
            value,
            grad: None,
            adam_m: None,
            adam_v: None,
        });
        self.index.insert(name.to_string(), id);
        id
    }

    /// Looks up a parameter id by name.
    pub fn id(&self, name: &str) -> Option<ParamId> {
        self.index.get(name).copied()
    }

    /// The current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// The accumulated gradient of a parameter, if any step produced one.
    pub fn grad(&self, id: ParamId) -> Option<&Tensor> {
        self.entries[id.0].grad.as_ref()
    }

    /// The name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// All parameter ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.entries.len()).map(ParamId)
    }

    /// Number of parameters (tensors).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_weights(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Adds `g` into the accumulated gradient of `id`.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Tensor) {
        let entry = &mut self.entries[id.0];
        match &mut entry.grad {
            Some(existing) => existing.add_assign(g),
            slot @ None => *slot = Some(g.clone()),
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for e in &mut self.entries {
            e.grad = None;
        }
    }

    /// Global L2 norm of all accumulated gradients.
    pub fn grad_norm(&self) -> f32 {
        self.entries.iter().filter_map(|e| e.grad.as_ref()).map(Tensor::sq_norm).sum::<f32>().sqrt()
    }

    /// Scales all gradients so that the global norm is at most `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        // The string is only built when profiling is on.
        let mut timer = if prof::enabled() {
            prof::op_at("optim".to_string(), "clip_grad_norm")
        } else {
            prof::OpTimer::noop()
        };
        timer.set_cost(cost::map(self.num_weights(), 3));
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for e in &mut self.entries {
                if let Some(g) = &mut e.grad {
                    g.scale_assign(scale);
                }
            }
        }
        norm
    }

    /// Replaces a parameter's value (shape may change), clearing its
    /// gradient and optimizer state. Used when swapping task heads on a
    /// pretrained encoder.
    pub fn replace(&mut self, id: ParamId, value: Tensor) {
        let entry = &mut self.entries[id.0];
        entry.value = value;
        entry.grad = None;
        entry.adam_m = None;
        entry.adam_v = None;
    }
}

/// Binds store parameters to tape leaves for one forward/backward pass.
///
/// Generic over [`TapeOps`] so the same model code can bind onto the eager
/// [`Tape`] (the default), the values-only evaluator or a symbolic
/// shape-only recorder; leaves carry the parameter name as a label for
/// provenance in analysis output.
pub struct Binder<'t, T: TapeOps = Tape> {
    tape: &'t T,
    bindings: Vec<(ParamId, Var)>,
}

impl<'t, T: TapeOps> Binder<'t, T> {
    /// Creates a binder recording onto `tape`.
    pub fn new(tape: &'t T) -> Self {
        Binder { tape, bindings: Vec::new() }
    }

    /// Binds parameter `id` on the tape as a trainable leaf labeled with
    /// the parameter's name ([`TapeOps::param`]). An id bound before gets
    /// its first leaf back, so two forwards traced on one tape share each
    /// parameter.
    pub fn bind(&mut self, store: &ParamStore, id: ParamId) -> Var {
        if let Some(&(_, var)) = self.bindings.iter().find(|(bound, _)| *bound == id) {
            return var;
        }
        let var = self.tape.param(store, id);
        self.bindings.push((id, var));
        var
    }

    /// Copies leaf gradients from a backward pass into the store.
    pub fn accumulate(&self, grads: &mut Grads, store: &mut ParamStore) {
        for &(id, var) in &self.bindings {
            if let Some(g) = grads.take(var) {
                store.accumulate_grad(id, &g);
            }
        }
    }

    /// Takes leaf gradients out of a backward pass, paired with their
    /// parameter ids in binding order — the shard-local half of
    /// [`accumulate`](Self::accumulate). Data-parallel training computes
    /// gradients on worker threads, then the coordinating thread folds each
    /// shard's pairs into the store in a fixed order, so the accumulated
    /// sums are bit-identical to serial training.
    pub fn take_param_grads(&self, grads: &mut Grads) -> Vec<(ParamId, Tensor)> {
        let mut out = Vec::with_capacity(self.bindings.len());
        for &(id, var) in &self.bindings {
            if let Some(g) = grads.take(var) {
                out.push((id, g));
            }
        }
        out
    }
}

/// Gradient-descent optimizers over a [`ParamStore`].
#[derive(Clone, Debug)]
pub enum Optimizer {
    /// Plain stochastic gradient descent.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// Adam (Kingma & Ba) with optional decoupled weight decay (AdamW). The
    /// paper fine-tunes with Adam at lr 5e-5.
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
        /// Numerical stabilizer.
        eps: f32,
        /// Decoupled weight decay coefficient (0 disables).
        weight_decay: f32,
        /// Step counter for bias correction.
        t: u64,
    },
}

impl Optimizer {
    /// Adam with the paper's defaults (lr provided by caller).
    pub fn adam(lr: f32) -> Self {
        Optimizer::Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0, t: 0 }
    }

    /// Plain SGD.
    pub fn sgd(lr: f32) -> Self {
        Optimizer::Sgd { lr }
    }

    /// The current learning rate.
    pub fn lr(&self) -> f32 {
        match self {
            Optimizer::Sgd { lr } | Optimizer::Adam { lr, .. } => *lr,
        }
    }

    /// Overrides the learning rate (for schedules).
    pub fn set_lr(&mut self, new_lr: f32) {
        match self {
            Optimizer::Sgd { lr } | Optimizer::Adam { lr, .. } => *lr = new_lr,
        }
    }

    /// Applies accumulated gradients to the store and clears them.
    pub fn step(&mut self, store: &mut ParamStore) {
        let mut timer = if prof::enabled() {
            prof::op_at(
                "optim".to_string(),
                match self {
                    Optimizer::Sgd { .. } => "sgd_step",
                    Optimizer::Adam { .. } => "adam_step",
                },
            )
        } else {
            prof::OpTimer::noop()
        };
        timer.set_cost(cost::map(
            store.num_weights(),
            match self {
                Optimizer::Sgd { .. } => 2,
                Optimizer::Adam { .. } => 12,
            },
        ));
        match self {
            Optimizer::Sgd { lr } => {
                let lr = *lr;
                for e in &mut store.entries {
                    if let Some(g) = &e.grad {
                        e.value.add_scaled_assign(g, -lr);
                    }
                }
            }
            Optimizer::Adam { lr, beta1, beta2, eps, weight_decay, t } => {
                *t += 1;
                let (lr, b1, b2, eps, wd, t) = (*lr, *beta1, *beta2, *eps, *weight_decay, *t);
                let bc1 = 1.0 - b1.powi(t as i32);
                let bc2 = 1.0 - b2.powi(t as i32);
                for e in &mut store.entries {
                    let Some(g) = &e.grad else { continue };
                    if e.adam_m.is_none() {
                        e.adam_m = Some(Tensor::zeros(g.shape()));
                        e.adam_v = Some(Tensor::zeros(g.shape()));
                    }
                    let m = e.adam_m.as_mut().expect("adam m");
                    let v = e.adam_v.as_mut().expect("adam v");
                    let md = m.data_mut();
                    let vd = v.data_mut();
                    let gd = g.data();
                    let pd = e.value.data_mut();
                    for i in 0..gd.len() {
                        md[i] = b1 * md[i] + (1.0 - b1) * gd[i];
                        vd[i] = b2 * vd[i] + (1.0 - b2) * gd[i] * gd[i];
                        let mhat = md[i] / bc1;
                        let vhat = vd[i] / bc2;
                        pd[i] -= lr * (mhat / (vhat.sqrt() + eps) + wd * pd[i]);
                    }
                }
            }
        }
        store.zero_grads();
    }
}

/// Linear warmup followed by linear decay to zero, the standard fine-tuning
/// schedule for BERT-style models.
#[derive(Clone, Copy, Debug)]
pub struct WarmupLinearSchedule {
    /// Peak learning rate after warmup.
    pub base_lr: f32,
    /// Number of warmup steps.
    pub warmup_steps: u64,
    /// Total training steps.
    pub total_steps: u64,
}

impl WarmupLinearSchedule {
    /// Learning rate at `step` (0-based).
    pub fn lr_at(&self, step: u64) -> f32 {
        if self.total_steps == 0 {
            return self.base_lr;
        }
        if step < self.warmup_steps {
            return self.base_lr * (step + 1) as f32 / self.warmup_steps.max(1) as f32;
        }
        let remaining = self.total_steps.saturating_sub(step) as f32;
        let decay_span = self.total_steps.saturating_sub(self.warmup_steps).max(1) as f32;
        self.base_lr * (remaining / decay_span).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_store() -> (ParamStore, ParamId) {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::vector(&[5.0, -3.0]));
        (store, id)
    }

    /// Minimizing f(w) = |w|^2 / 2 has gradient w.
    fn grad_of_quadratic(store: &ParamStore, id: ParamId) -> Tensor {
        store.value(id).clone()
    }

    #[test]
    fn sgd_descends_quadratic() {
        let (mut store, id) = quadratic_store();
        let mut opt = Optimizer::sgd(0.1);
        for _ in 0..100 {
            let g = grad_of_quadratic(&store, id);
            store.accumulate_grad(id, &g);
            opt.step(&mut store);
        }
        assert!(store.value(id).sq_norm() < 1e-6);
    }

    #[test]
    fn adam_descends_quadratic() {
        let (mut store, id) = quadratic_store();
        let mut opt = Optimizer::adam(0.2);
        for _ in 0..300 {
            let g = grad_of_quadratic(&store, id);
            store.accumulate_grad(id, &g);
            opt.step(&mut store);
        }
        assert!(store.value(id).sq_norm() < 1e-3, "norm {}", store.value(id).sq_norm());
    }

    #[test]
    fn step_clears_grads() {
        let (mut store, id) = quadratic_store();
        store.accumulate_grad(id, &Tensor::vector(&[1.0, 1.0]));
        Optimizer::sgd(0.1).step(&mut store);
        assert!(store.grad(id).is_none());
    }

    #[test]
    fn grad_accumulation_sums() {
        let (mut store, id) = quadratic_store();
        store.accumulate_grad(id, &Tensor::vector(&[1.0, 2.0]));
        store.accumulate_grad(id, &Tensor::vector(&[3.0, 4.0]));
        assert_eq!(store.grad(id).expect("grad").data(), &[4.0, 6.0]);
    }

    #[test]
    fn clip_scales_down_large_grads() {
        let (mut store, id) = quadratic_store();
        store.accumulate_grad(id, &Tensor::vector(&[3.0, 4.0])); // norm 5
        let pre = store.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let g = store.grad(id).expect("grad");
        assert!((g.sq_norm().sqrt() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_leaves_small_grads_alone() {
        let (mut store, id) = quadratic_store();
        store.accumulate_grad(id, &Tensor::vector(&[0.3, 0.4]));
        store.clip_grad_norm(1.0);
        assert_eq!(store.grad(id).expect("grad").data(), &[0.3, 0.4]);
    }

    #[test]
    fn duplicate_name_panics() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::scalar(0.0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.register("w", Tensor::scalar(1.0));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn binder_routes_grads_to_store() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::matrix(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let tape = Tape::new();
        let mut binder = Binder::new(&tape);
        let w = binder.bind(&store, id);
        let loss = tape.sum_all(w);
        let mut grads = tape.backward(loss);
        binder.accumulate(&mut grads, &mut store);
        assert_eq!(store.grad(id).expect("grad").data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn binder_binds_each_parameter_once() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::vector(&[1.0, 2.0]));
        let tape = Tape::new();
        let mut binder = Binder::new(&tape);
        let first = binder.bind(&store, id);
        assert_eq!(binder.bind(&store, id), first);
        assert_eq!(tape.len(), 1);
    }

    #[test]
    fn warmup_schedule_shape() {
        let s = WarmupLinearSchedule { base_lr: 1.0, warmup_steps: 10, total_steps: 110 };
        assert!(s.lr_at(0) < s.lr_at(5));
        assert!((s.lr_at(9) - 1.0).abs() < 1e-6);
        assert!(s.lr_at(50) < 1.0);
        assert!(s.lr_at(109) < s.lr_at(50));
        assert!(s.lr_at(110) <= 1e-6);
    }
}
