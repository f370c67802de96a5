use crate::SynthSpec;
use fabflip_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// An in-memory labelled image dataset.
///
/// Images are stored as one `[N, C, H, W]` tensor; labels as `Vec<usize>`.
/// Client shards created by [`crate::dirichlet_partition`] are views by
/// index into a shared dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    images: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

/// One training batch: images plus aligned labels.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Images `[B, C, H, W]`.
    pub images: Tensor,
    /// Labels, one per image.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Builds a dataset from an image tensor and labels.
    ///
    /// # Panics
    ///
    /// Panics when the batch axis disagrees with `labels.len()` or a label
    /// is out of range.
    pub fn new(images: Tensor, labels: Vec<usize>, num_classes: usize) -> Dataset {
        assert_eq!(
            images.shape()[0],
            labels.len(),
            "image/label count mismatch"
        );
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        Dataset {
            images,
            labels,
            num_classes,
        }
    }

    /// Synthesizes `n` i.i.d. samples (labels uniform over classes) from a
    /// [`SynthSpec`], deterministically in `seed`.
    ///
    /// The class prototypes *and* the instance noise both derive from
    /// `seed`, so two datasets with different seeds are different tasks.
    /// For matching train/test splits use [`Dataset::synthesize_split`].
    pub fn synthesize(spec: &SynthSpec, n: usize, seed: u64) -> Dataset {
        Dataset::synthesize_split(spec, n, seed, seed)
    }

    /// Synthesizes `n` samples of the task defined by `task_seed` (which
    /// fixes the class prototypes), drawing instance noise from
    /// `sample_seed`. Train and test splits of the same task share
    /// `task_seed` and differ in `sample_seed`.
    pub fn synthesize_split(
        spec: &SynthSpec,
        n: usize,
        task_seed: u64,
        sample_seed: u64,
    ) -> Dataset {
        let mut rng = StdRng::seed_from_u64(sample_seed);
        let protos: Vec<Vec<f32>> = (0..spec.num_classes)
            .map(|c| spec.prototype(c, task_seed))
            .collect();
        let mut data = Vec::with_capacity(n * spec.image_len());
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let label = rng.gen_range(0..spec.num_classes);
            data.extend_from_slice(&spec.instance(&protos[label], &mut rng));
            labels.push(label);
        }
        let images = Tensor::from_vec(vec![n, spec.channels, spec.height, spec.width], data)
            .expect("internal geometry is consistent");
        Dataset {
            images,
            labels,
            num_classes: spec.num_classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Per-sample image geometry `(C, H, W)`.
    pub fn image_shape(&self) -> (usize, usize, usize) {
        let s = self.images.shape();
        (s[1], s[2], s[3])
    }

    /// The full image tensor `[N, C, H, W]`.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Gathers the samples at `indices` into a [`Batch`].
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    pub fn gather(&self, indices: &[usize]) -> Batch {
        let images = self
            .images
            .gather_batch(indices)
            .expect("sample index out of range");
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        Batch { images, labels }
    }

    /// Splits `indices` into shuffled mini-batches of at most `batch_size`.
    ///
    /// # Panics
    ///
    /// Panics when `batch_size == 0`.
    pub fn shuffled_batches(
        &self,
        indices: &[usize],
        batch_size: usize,
        rng: &mut StdRng,
    ) -> Vec<Batch> {
        assert!(batch_size > 0, "batch size must be positive");
        let mut order = indices.to_vec();
        order.shuffle(rng);
        order
            .chunks(batch_size)
            .map(|chunk| self.gather(chunk))
            .collect()
    }

    /// Per-class sample counts (length = `num_classes`).
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.num_classes];
        for &l in &self.labels {
            h[l] += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesize_is_deterministic() {
        let spec = SynthSpec::fashion_like();
        let a = Dataset::synthesize(&spec, 50, 9);
        let b = Dataset::synthesize(&spec, 50, 9);
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.images().data(), b.images().data());
        let c = Dataset::synthesize(&spec, 50, 10);
        assert_ne!(a.images().data(), c.images().data());
    }

    #[test]
    fn class_histogram_roughly_uniform() {
        let spec = SynthSpec::fashion_like();
        let d = Dataset::synthesize(&spec, 2000, 1);
        let h = d.class_histogram();
        assert_eq!(h.iter().sum::<usize>(), 2000);
        for &count in &h {
            assert!(count > 120 && count < 280, "histogram {h:?}");
        }
    }

    #[test]
    fn gather_aligns_images_and_labels() {
        let spec = SynthSpec::fashion_like();
        let d = Dataset::synthesize(&spec, 20, 2);
        let b = d.gather(&[3, 7, 3]);
        assert_eq!(b.images.shape()[0], 3);
        assert_eq!(b.labels[0], d.labels()[3]);
        assert_eq!(b.labels[1], d.labels()[7]);
        assert_eq!(b.labels[0], b.labels[2]);
        let one = d.images().slice_batch(3).unwrap();
        assert_eq!(&b.images.data()[..one.len()], one.data());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_rejects_bad_index() {
        let spec = SynthSpec::fashion_like();
        let d = Dataset::synthesize(&spec, 5, 3);
        let _ = d.gather(&[5]);
    }

    #[test]
    fn shuffled_batches_cover_all_indices() {
        let spec = SynthSpec::fashion_like();
        let d = Dataset::synthesize(&spec, 23, 4);
        let idx: Vec<usize> = (0..23).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let batches = d.shuffled_batches(&idx, 8, &mut rng);
        assert_eq!(batches.len(), 3);
        let total: usize = batches.iter().map(|b| b.labels.len()).sum();
        assert_eq!(total, 23);
    }
}
